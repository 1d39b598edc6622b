#include "accel/records.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "accel/analytic.hpp"
#include "util/logging.hpp"
#include "util/memo.hpp"
#include "util/thread_pool.hpp"

namespace stellar::accel
{

namespace
{

using Clock = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string &what)
{
    throw FatalError("dse shard records: " + what);
}

constexpr std::size_t kChecksumDigits = 16;

std::string
checksumHex(std::string_view payload)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)util::fnv1a(payload));
    return buffer;
}

/** The code space every shard of one sweep scans (no limit: shard
 *  scans record every survivor, the merge applies `enumLimit`). */
dataflow::EnumerateOptions
enumerateOptionsFor(const ShardConfig &config)
{
    dataflow::EnumerateOptions enumerate;
    enumerate.minCoeff = -config.maxCoeff;
    enumerate.maxCoeff = config.maxCoeff;
    enumerate.maxHopLength = config.maxHop;
    enumerate.limit = std::numeric_limits<std::size_t>::max();
    return enumerate;
}

// The file grammar. A records document is exactly the bytes
// serializeShardRecords writes, with no whitespace anywhere:
//
//   {"version":N,"kind":"stellar-dse-shard","checksum":"<16 hex>",
//    "payload":{"config":C,"range":R,"stats":S,"records":[E,...]}}
//
// C, R and S are flat objects whose keys come in the order the
// visitFields overloads below list; each record E is a flat array of
// its fields in that order, with no keys. Those overloads are the one
// description of each section: the writer and the reader both walk
// them, so the two cannot drift. Every number is spelled by
// std::to_chars (a double in its shortest round-trip form, a bool as 0
// or 1), and the reader re-spells each number it reads the same way.

template <typename T, typename Section>
concept SectionOf = std::same_as<std::remove_const_t<Section>, T>;

/** Records are arrays, so the ~25k of them in a sweep repeat no keys. */
template <typename Section>
constexpr bool kKeyed = !SectionOf<CandidateRecord, Section>;

template <typename Config, typename Visit>
    requires SectionOf<ShardConfig, Config>
void
visitFields(Config &config, Visit &&visit)
{
    visit("dim", config.dim);
    visit("max_hop", config.maxHop);
    visit("max_coeff", config.maxCoeff);
    visit("top_k", config.topK);
    visit("analytic_top_k", config.analyticTopK);
    visit("enum_limit", config.enumLimit);
    visit("max_pes", config.maxPes);
}

template <typename Range, typename Visit>
    requires SectionOf<ShardRange, Range>
void
visitFields(Range &range, Visit &&visit)
{
    visit("shard_index", range.shardIndex);
    visit("shard_count", range.shardCount);
    visit("lo", range.lo);
    visit("hi", range.hi);
    visit("codes_total", range.codesTotal);
}

template <typename Stats, typename Visit>
    requires SectionOf<dataflow::EnumerateStats, Stats>
void
visitFields(Stats &stats, Visit &&visit)
{
    visit("codes_total", stats.codesTotal);
    visit("codes_examined", stats.codesExamined);
    visit("orbit_skipped", stats.orbitSkipped);
    visit("feasibility_skipped", stats.feasibilitySkipped);
    visit("decoded", stats.decoded);
    visit("rejected", stats.rejected);
    visit("duplicates", stats.duplicates);
    visit("yielded", stats.yielded);
}

template <typename Record, typename Visit>
    requires SectionOf<CandidateRecord, Record>
void
visitFields(Record &record, Visit &&visit)
{
    visit("code", record.code);
    visit("saturated", record.saturated);
    visit("score", record.score);
    visit("duplicates_after", record.duplicatesAfter);
}

/** std::to_chars's longest spelling of an int64 or a shortest double
 *  ("-2.2250738585072014e-308") fits with room to spare. */
constexpr std::size_t kNumberChars = 32;

/** Spell `value` at `at` as std::to_chars does: an integer in decimal,
 *  a double in its shortest round-trip form, a bool as 0 or 1. */
template <typename T>
char *
spellNumber(char *at, T value)
{
    if constexpr (std::is_same_v<T, bool>) {
        *at++ = value ? '1' : '0';
        return at;
    } else {
        return std::to_chars(at, at + kNumberChars, value).ptr;
    }
}

/**
 * Append one section in visitFields order: a flat object, or for a
 * record a flat array. It is spelled into a stack buffer and appended
 * once, since a sweep writes ~25k records; no section has more than 8
 * fields of a key under 24 bytes and a number under kNumberChars.
 */
template <typename Section>
void
writeSection(std::string &out, const Section &section)
{
    char buffer[8 * (24 + 4 + kNumberChars)];
    char *at = buffer;
    char open = kKeyed<Section> ? '{' : '[';
    visitFields(section, [&](std::string_view key, const auto &value) {
        *at++ = open;
        open = ',';
        if constexpr (kKeyed<Section>) {
            *at++ = '"';
            at = std::copy(key.begin(), key.end(), at);
            *at++ = '"';
            *at++ = ':';
        }
        at = spellNumber(at, value);
    });
    *at++ = kKeyed<Section> ? '}' : ']';
    out.append(buffer, at);
}

/**
 * The strict reader: a cursor over one span of the document that
 * accepts only the spelling the writer produces. Diagnostics carry the
 * byte offset in the whole document.
 */
class Cursor
{
  public:
    Cursor(std::string_view text, std::size_t base)
        : text_(text), base_(base)
    {
    }

    std::size_t offset() const { return base_ + pos_; }
    bool done() const { return pos_ == text_.size(); }

    /** Step over `literal` if the text continues with it. */
    bool
    consume(std::string_view literal)
    {
        if (!text_.substr(pos_).starts_with(literal))
            return false;
        pos_ += literal.size();
        return true;
    }

    /** The next `n` bytes (fewer at the end of the text). */
    std::string_view
    take(std::size_t n)
    {
        std::string_view span = text_.substr(pos_, n);
        pos_ += span.size();
        return span;
    }

    void
    expect(std::string_view literal)
    {
        if (!consume(literal))
            fail("expected '" + std::string(literal) + "'");
    }

    /** `{"key":` for a section's first field, `,"key":` for the rest;
     *  a record's `[` or `,` alone. */
    template <bool Keyed>
    void
    field(char open, std::string_view key)
    {
        if (!consume({&open, 1}))
            fail(std::string("expected '") + open + "' before " +
                 std::string(key));
        if (Keyed && !(consume("\"") && consume(key) && consume("\":")))
            fail(std::string("expected '") + open + "\"" +
                 std::string(key) + "\":'");
    }

    /** A number exactly as spellNumber spells it; false (cursor
     *  unmoved) on any other spelling. An integer may not have a '+',
     *  leading zeros or "-0"; a double is re-spelled with the writer's
     *  std::to_chars call and compared, so "1E-01", "0.10" or the
     *  %.17g "0.10000000000000001" for 0.1 are refused. */
    template <typename T>
    bool
    number(T &value)
    {
        const char *first = text_.data() + pos_;
        auto [end, error] =
                std::from_chars(first, text_.data() + text_.size(), value);
        if (error != std::errc())
            return false;
        if constexpr (std::is_integral_v<T>) {
            const char *digits = first + (*first == '-');
            if (*digits == '0' && (end - digits > 1 || digits != first))
                return false;
        } else {
            char buffer[kNumberChars];
            char *spelled = spellNumber(buffer, value);
            if (std::string_view(buffer, std::size_t(spelled - buffer)) !=
                std::string_view(first, std::size_t(end - first)))
                return false;
        }
        pos_ = std::size_t(end - text_.data());
        return true;
    }

    void
    read(std::int64_t &value)
    {
        if (!number(value))
            fail("expected an integer");
    }

    void
    read(double &value)
    {
        if (!number(value) || !std::isfinite(value))
            fail("expected a finite number in shortest round-trip form");
    }

    void
    read(bool &value)
    {
        if (consume("1"))
            value = true;
        else if (consume("0"))
            value = false;
        else
            fail("expected 0 or 1");
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        accel::fail(what + " at byte " + std::to_string(offset()));
    }

  private:
    std::string_view text_;
    std::size_t base_;
    std::size_t pos_ = 0;
};

/** Read one section written by writeSection, in visitFields order. */
template <typename Section>
void
readSection(Cursor &in, Section &section)
{
    char open = kKeyed<Section> ? '{' : '[';
    visitFields(section, [&](std::string_view key, auto &value) {
        in.field<kKeyed<Section>>(open, key);
        open = ',';
        in.read(value);
    });
    in.expect(kKeyed<Section> ? "}" : "]");
}

void
checkConfig(const ShardConfig &config)
{
    if (config.dim < 1 || config.dim > 4096)
        fail("implausible dim " + std::to_string(config.dim));
    if (config.maxHop < 0)
        fail("max_hop must be >= 0");
    if (config.maxCoeff < 1)
        fail("max_coeff must be >= 1");
    if (config.topK < 1)
        fail("top_k must be >= 1");
    if (config.analyticTopK < 1)
        fail("analytic_top_k must be >= 1 (shard scans are "
             "analytic-tier scans)");
    if (config.enumLimit < 1)
        fail("enum_limit must be >= 1");
    if (config.maxPes < 0)
        fail("max_pes must be >= 0");
}

void
checkRange(const ShardRange &range)
{
    if (range.shardCount < 1)
        fail("shard_count must be >= 1");
    if (range.shardIndex < 0 || range.shardIndex >= range.shardCount)
        fail("shard_index " + std::to_string(range.shardIndex) +
             " out of range for " + std::to_string(range.shardCount) +
             " shard(s)");
    if (range.codesTotal < 1)
        fail("codes_total must be >= 1");
    if (range.lo < 0 || range.lo > range.hi ||
        range.hi > range.codesTotal)
        fail("shard range [" + std::to_string(range.lo) + ", " +
             std::to_string(range.hi) + ") does not fit in " +
             std::to_string(range.codesTotal) + " codes");
    // Where the slice of (index, count) lies depends on the spec's
    // feasible codes, which the file does not carry: the merge checks it.
}

void
checkStats(const dataflow::EnumerateStats &stats, const ShardRange &range)
{
    if (stats.codesTotal != range.codesTotal)
        fail("stats codes_total disagrees with the shard range");
    if (stats.codesExamined != range.hi - range.lo)
        fail("stats must cover the whole shard range");
    if (stats.orbitSkipped < 0 || stats.feasibilitySkipped < 0 ||
        stats.decoded < 0 || stats.rejected < 0 || stats.duplicates < 0 ||
        stats.yielded < 0)
        fail("negative scan counter");
    if (stats.codesExamined !=
        stats.orbitSkipped + stats.feasibilitySkipped + stats.decoded)
        fail("scan counters break codesExamined == orbitSkipped + "
             "feasibilitySkipped + decoded");
    if (stats.decoded !=
        stats.rejected + stats.duplicates + stats.yielded)
        fail("scan counters break decoded == rejected + duplicates + "
             "yielded");
}

/** A record against its predecessor in the shard (null for the first)
 *  and the shard's own range and stats. */
void
checkRecord(const CandidateRecord &record, const CandidateRecord *prev,
            const ShardRecords &shard)
{
    if (record.code < shard.range.lo || record.code >= shard.range.hi)
        fail("record code " + std::to_string(record.code) +
             " outside the shard range");
    if (prev && record.code <= prev->code)
        fail("record codes must be strictly increasing");
    // The scan counts duplicates as it goes: through a yield, at least
    // as many as through the yield before, and at most the shard's.
    const std::int64_t least = prev ? prev->duplicatesAfter : 0;
    if (record.duplicatesAfter < least ||
        record.duplicatesAfter > shard.stats.duplicates)
        fail("record code " + std::to_string(record.code) +
             " claims duplicates_after " +
             std::to_string(record.duplicatesAfter) + ", outside [" +
             std::to_string(least) + ", " +
             std::to_string(shard.stats.duplicates) +
             "] (the previous record's and the shard's duplicates)");
}

// The literal spans of the grammar that are not a section's fields.
constexpr std::string_view kVersionHead = "{\"version\":";
constexpr std::string_view kChecksumHead =
        ",\"kind\":\"stellar-dse-shard\",\"checksum\":\"";
constexpr std::string_view kPayloadHead = "\",\"payload\":";
constexpr std::string_view kConfigHead = "{\"config\":";
constexpr std::string_view kRangeHead = ",\"range\":";
constexpr std::string_view kStatsHead = ",\"stats\":";
constexpr std::string_view kRecordsHead = ",\"records\":[";

} // namespace

bool
operator==(const ShardConfig &a, const ShardConfig &b)
{
    return a.dim == b.dim && a.maxHop == b.maxHop &&
           a.maxCoeff == b.maxCoeff && a.topK == b.topK &&
           a.analyticTopK == b.analyticTopK &&
           a.enumLimit == b.enumLimit && a.maxPes == b.maxPes;
}

std::string
serializeShardRecords(const ShardRecords &shard)
{
    std::string out;
    out.reserve(512 + 40 * shard.records.size());
    out += kVersionHead;
    char version[kNumberChars];
    out.append(version, spellNumber(version, kRecordsVersion));
    out += kChecksumHead;
    const std::size_t checksum_at = out.size();
    out.append(kChecksumDigits, '0'); // patched once the payload is out
    out += kPayloadHead;
    const std::size_t payload_at = out.size();
    out += kConfigHead;
    writeSection(out, shard.config);
    out += kRangeHead;
    writeSection(out, shard.range);
    out += kStatsHead;
    writeSection(out, shard.stats);
    out += kRecordsHead;
    for (std::size_t i = 0; i < shard.records.size(); i++) {
        if (i != 0)
            out += ',';
        writeSection(out, shard.records[i]);
    }
    out += "]}";
    out.replace(checksum_at, kChecksumDigits,
                checksumHex(std::string_view(out).substr(payload_at)));
    out += '}';
    return out;
}

ShardRecords
parseShardRecords(const std::string &text)
{
    Cursor head(text, 0);
    auto notShard = [&] { head.fail("not a stellar-dse-shard file"); };
    std::int64_t version = 0;
    if (!head.consume(kVersionHead) || !head.number(version))
        notShard();
    if (version != kRecordsVersion)
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(kRecordsVersion) + ")");
    if (!head.consume(kChecksumHead))
        notShard();
    const std::string_view checksum = head.take(kChecksumDigits);
    if (checksum.size() != kChecksumDigits ||
        !std::all_of(checksum.begin(), checksum.end(), [](char c) {
            return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        }))
        notShard();
    if (!head.consume(kPayloadHead))
        notShard();

    // The checksum covers the payload's raw bytes, from its first byte
    // up to the document's closing '}', so any changed byte is caught
    // here, before a single field is read.
    const std::size_t payload_at = head.offset();
    std::string_view payload = std::string_view(text).substr(payload_at);
    if (!payload.empty())
        payload.remove_suffix(1);
    if (checksum != checksumHex(payload))
        fail("checksum mismatch (file damaged or hand-edited)");

    ShardRecords shard;
    Cursor in(payload, payload_at);
    in.expect(kConfigHead);
    readSection(in, shard.config);
    checkConfig(shard.config);
    in.expect(kRangeHead);
    readSection(in, shard.range);
    checkRange(shard.range);
    in.expect(kStatsHead);
    readSection(in, shard.stats);
    checkStats(shard.stats, shard.range);
    in.expect(kRecordsHead);
    // Every record spells at least 9 bytes (`[0,0,0,0]`), which bounds
    // the reservation a forged `yielded` can ask for.
    shard.records.reserve(std::size_t(std::min<std::int64_t>(
            shard.stats.yielded, std::int64_t(payload.size() / 9))));
    if (!in.consume("]")) {
        do {
            CandidateRecord &record = shard.records.emplace_back();
            readSection(in, record);
            const std::size_t n = shard.records.size();
            checkRecord(record, n > 1 ? &shard.records[n - 2] : nullptr,
                        shard);
        } while (in.consume(","));
        in.expect("]");
    }
    if (std::int64_t(shard.records.size()) != shard.stats.yielded)
        fail("record count disagrees with stats.yielded");
    in.expect("}");
    if (!in.done())
        fail("trailing content after the payload");
    if (text.back() != '}')
        fail("expected '}' closing the document");
    return shard;
}

void
saveShardRecordsFile(const ShardRecords &shard, const std::string &path)
{
    std::string text = serializeShardRecords(shard);
    std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            fail("cannot write " + temp);
        out << text;
        if (!out.flush())
            fail("short write to " + temp);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        fail("cannot rename " + temp + " to " + path);
}

ShardRecords
loadShardRecordsFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fail("cannot read " + path);
    const std::streamoff size = in.tellg();
    if (size < 0 || !in.seekg(0))
        fail("cannot size " + path);
    std::string text(std::size_t(size), '\0');
    if (!in.read(text.data(), size) || in.gcount() != size)
        fail("short read of " + path);
    return parseShardRecords(text);
}

ShardRecords
scanShard(const func::FunctionalSpec &functional, const IntVec &bounds,
          const ShardConfig &config, std::int64_t shard_index,
          std::int64_t shard_count, std::size_t threads,
          const model::AreaParams &area_params,
          const model::TimingParams &timing_params)
{
    require(shard_count >= 1, "shard count must be >= 1");
    require(shard_index >= 0 && shard_index < shard_count,
            "shard index out of range");
    require(config.maxCoeff >= 1, "max_coeff must be >= 1");
    require(config.analyticTopK >= 1,
            "shard scans require the analytic tier (analytic_top_k)");

    ShardRecords out;
    out.config = config;

    // The enumLimit is a *global* property of the merged walk; a shard
    // cannot know where it falls, so it records every local survivor.
    dataflow::EnumerateOptions enumerate = enumerateOptionsFor(config);
    enumerate.threads = threads;
    enumerate.shardIndex = shard_index;
    enumerate.shardCount = shard_count;

    // Score on the scan workers with the same scorer, model and widths
    // the single-process front half uses (DseOptions defaults —
    // renderDse never overrides them), so recorded scores merge
    // bit-for-bit.
    DseOptions front;
    front.maxPes = config.maxPes;
    front.analyticTopK = std::size_t(config.analyticTopK);
    std::atomic<std::int64_t> score_nanos{0};
    FrontHalfScorer scorer(functional, bounds, front, area_params,
                           timing_params, score_nanos);

    dataflow::SurvivorStream stream(functional, enumerate, &scorer);
    dataflow::Survivor item;
    while (stream.next(item)) {
        // A maxPes-pruned verdict carries no score (0, unsaturated) —
        // exactly like the single-process front half. The merge
        // re-derives the prune from the code.
        CandidateRecord &record = out.records.emplace_back();
        record.code = item.code;
        record.saturated = item.verdict.saturated;
        record.score = item.verdict.score;
        record.duplicatesAfter = item.duplicatesAfter;
    }
    out.stats = stream.stats();

    out.range.shardIndex = shard_index;
    out.range.shardCount = shard_count;
    out.range.codesTotal = out.stats.codesTotal;
    std::tie(out.range.lo, out.range.hi) = stream.range();
    return out;
}

namespace
{

using dataflow::detail::CandidateDecoder;

/**
 * What the merge derives from a code-ordered run of one shard's
 * records, off the folding thread: per record, whether its code decodes
 * to an orbit-canonical survivor and, if so, the feasible codes of its
 * shard through it (its decoded_after), its signature and the hash the
 * fold's SignatureSet files it under, and whether the maxPes prune
 * drops it. A slot's buffers are sized once and reused by every chunk
 * that lands in it, so the decode writes into no new memory (the PE
 * count, run only under max_pes, keeps its scratch in `kernel`). A throw
 * from the PE count stops the chunk at that record; the fold rethrows
 * it where the serial walk would have.
 */
struct DecodedChunk
{
    const ShardRecords *shard = nullptr;
    std::size_t first = 0; //!< records [first, end) of *shard
    std::size_t end = 0;
    std::vector<std::uint8_t> survivor;
    std::vector<std::uint8_t> pruned;
    std::vector<std::int64_t> decodedAfter;
    std::vector<std::int64_t> signatures; //!< back to back, in order
    std::vector<std::uint64_t> hashes;
    IntVec kernel; //!< analyticPeCount's scratch
    std::exception_ptr error; //!< what pruning record `failed` threw
    std::size_t failed = 0;

    DecodedChunk(std::size_t capacity, std::size_t width)
        : survivor(capacity), pruned(capacity), decodedAfter(capacity),
          signatures(capacity * width), hashes(capacity)
    {
    }

    void
    decode(CandidateDecoder &decoder, const IntVec &bounds,
           std::int64_t max_pes)
    {
        const std::int64_t feasible_lo =
                decoder.feasibleBelow(shard->range.lo);
        const std::size_t width = decoder.signatureWidth();
        error = nullptr;
        for (std::size_t i = first; i < end; i++) {
            const std::size_t k = i - first;
            const std::int64_t code = shard->records[i].code;
            survivor[k] = decoder.canonical(code) && decoder.decode(code);
            if (!survivor[k])
                continue;
            // The scan decodes every feasible code of its slice: through
            // a yield, exactly those up to and including its own code.
            decodedAfter[k] = decoder.feasibleBelow(code + 1) - feasible_lo;
            const auto &signature = decoder.signature();
            std::copy(signature.begin(), signature.end(),
                      signatures.begin() + std::ptrdiff_t(k * width));
            hashes[k] = dataflow::detail::SignatureSet::hash(signature);
            try {
                pruned[k] = max_pes > 0 &&
                            analyticPeCount(decoder.cells(), bounds, kernel) >
                                    max_pes;
            } catch (...) {
                error = std::current_exception();
                failed = i;
                return;
            }
        }
    }
};

/**
 * Decodes a shard set's records in code-ordered chunks on a pool of
 * workers, one CandidateDecoder each, at most two chunks a worker ahead
 * of the fold, so a limit stop wastes at most that window. Slots and
 * decoders are allocated up front on the constructing thread; at one
 * worker there is no pool and `next` decodes inline.
 */
class ChunkDecoder
{
  public:
    ChunkDecoder(const std::vector<ShardRecords> &shards,
                 std::size_t records,
                 const func::FunctionalSpec &functional,
                 const dataflow::EnumerateOptions &options,
                 const IntVec &bounds, std::int64_t max_pes,
                 std::size_t threads, CandidateDecoder &serial)
        : bounds_(bounds), maxPes_(max_pes)
    {
        if (threads == 0)
            threads = std::max<std::size_t>(
                    1, std::thread::hardware_concurrency());
        // Eight chunks a worker balance the load; chunks never cross a
        // shard, which starts its own feasible count.
        const std::size_t size = std::clamp<std::size_t>(
                records / (8 * threads), 16, 1024);
        for (const ShardRecords &shard : shards)
            for (std::size_t at = 0; at < shard.records.size(); at += size)
                chunks_.push_back({&shard, at,
                                   std::min(at + size, shard.records.size())});
        threads = std::min(threads, chunks_.size());
        const std::size_t width = serial.signatureWidth();
        // `serial` decodes inline at one worker; at more it is one of the
        // workers' decoders, since the folding thread decodes nothing.
        idle_.push_back(&serial);
        if (threads <= 1) {
            slots_.emplace_back(size, width);
            return;
        }
        for (std::size_t i = 1; i < threads; i++) {
            decoders_.push_back(
                    std::make_unique<CandidateDecoder>(functional, options));
            decoders_.back()->feasibleBelow(0); // build the index here
            idle_.push_back(decoders_.back().get());
        }
        window_ = 2 * threads;
        slots_.assign(window_, DecodedChunk(size, width));
        pool_ = std::make_unique<util::ThreadPool>(threads);
    }

    // The pool's tasks hold `this` and the slots' addresses.
    ChunkDecoder(const ChunkDecoder &) = delete;
    ChunkDecoder &operator=(const ChunkDecoder &) = delete;

    /** The next chunk in code order, decoded; null past the last. */
    const DecodedChunk *
    next()
    {
        if (taken_ == chunks_.size())
            return nullptr;
        if (!pool_) {
            DecodedChunk &slot = fill(slots_.front(), taken_++);
            slot.decode(*idle_.front(), bounds_, maxPes_);
            return &slot;
        }
        // Refill the window: the slot of chunk `taken_ + window_ - 1`
        // held chunk `taken_ - 1`, which the caller has folded.
        for (; issued_ < chunks_.size() && issued_ < taken_ + window_;
             issued_++) {
            DecodedChunk &slot = fill(slots_[issued_ % window_], issued_);
            inflight_.push_back(pool_->submit([this, &slot] {
                CandidateDecoder *decoder = borrow();
                try {
                    slot.decode(*decoder, bounds_, maxPes_);
                } catch (...) {
                    giveBack(decoder); // the future carries the throw
                    throw;
                }
                giveBack(decoder);
            }));
        }
        inflight_.front().get();
        inflight_.pop_front();
        return &slots_[taken_++ % window_];
    }

  private:
    struct ChunkSpan
    {
        const ShardRecords *shard;
        std::size_t first, end;
    };

    DecodedChunk &
    fill(DecodedChunk &slot, std::size_t chunk)
    {
        slot.shard = chunks_[chunk].shard;
        slot.first = chunks_[chunk].first;
        slot.end = chunks_[chunk].end;
        return slot;
    }

    // At most `threads` chunks decode at once, so one of the `threads`
    // decoders is always idle when a chunk starts.
    CandidateDecoder *
    borrow()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CandidateDecoder *decoder = idle_.back();
        idle_.pop_back();
        return decoder;
    }

    void
    giveBack(CandidateDecoder *decoder)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(decoder);
    }

    const IntVec &bounds_;
    std::int64_t maxPes_;
    std::vector<ChunkSpan> chunks_;
    std::vector<DecodedChunk> slots_;
    std::vector<std::unique_ptr<CandidateDecoder>> decoders_;
    std::mutex mutex_;
    std::vector<CandidateDecoder *> idle_;
    std::size_t window_ = 1;
    std::size_t taken_ = 0;
    std::size_t issued_ = 0;
    std::deque<std::future<void>> inflight_;
    // Declared last: destroyed first, so a fold that stops early (the
    // limit, or an error) joins the running chunks before their slots
    // and decoders die, and drops the queued ones.
    std::unique_ptr<util::ThreadPool> pool_;
};

} // namespace

std::vector<DseCandidate>
mergeShardRecords(std::vector<ShardRecords> shards,
                  const func::FunctionalSpec &functional,
                  const IntVec &bounds, const MergeEvalOptions &eval,
                  const model::AreaParams &area_params,
                  const model::TimingParams &timing_params, DseStats *stats)
{
    if (shards.empty())
        fail("no shard files to merge");
    const ShardConfig &config = shards.front().config;
    const std::int64_t total = shards.front().range.codesTotal;
    for (const ShardRecords &shard : shards) {
        if (!(shard.config == config))
            fail("mixed shard configs (all inputs must come from one "
                 "sweep)");
        if (shard.range.codesTotal != total)
            fail("mixed code-space sizes");
        if (shard.range.shardCount != std::int64_t(shards.size()))
            fail("expected " + std::to_string(shard.range.shardCount) +
                 " shard file(s) for this sweep, got " +
                 std::to_string(shards.size()));
    }
    std::vector<bool> seen(shards.size(), false);
    for (const ShardRecords &shard : shards) {
        std::size_t index = std::size_t(shard.range.shardIndex);
        if (seen[index])
            fail("overlapping shard ranges: shard " +
                 std::to_string(shard.range.shardIndex) +
                 " appears twice");
        seen[index] = true;
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardRecords &a, const ShardRecords &b) {
                  return a.range.shardIndex < b.range.shardIndex;
              });

    DseStats local;
    auto enumerate_start = Clock::now();

    // The global consuming walk: exactly TransformStream's chunk merge,
    // with shard files in the chunk role. Re-derive each record's
    // signature from its code, dedup it globally, apply the maxPes prune
    // and the analytic top-K heap (exploreDataflows' own AnalyticTopK,
    // keyed to the code) to every global yield, and stop at enumLimit —
    // all in code order, so input-file order cannot matter.
    dataflow::detail::CandidateDecoder decoder(functional,
                                               enumerateOptionsFor(config));
    if (decoder.codesTotal() != total)
        fail("shard code space does not match this spec's");
    auto range_text = [](std::int64_t lo, std::int64_t hi) {
        return "[" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
    };
    std::int64_t next_lo = 0;
    for (const ShardRecords &shard : shards) {
        const ShardRange &range = shard.range;
        const std::string name = "shard " +
                                 std::to_string(range.shardIndex) + "/" +
                                 std::to_string(range.shardCount);
        // The ranges must tile [0, total) in index order ...
        if (range.lo != next_lo)
            fail("shard ranges do not tile [0, " + std::to_string(total) +
                 "): " + name + " covers " + range_text(range.lo, range.hi) +
                 " but the previous shard ends at " +
                 std::to_string(next_lo));
        next_lo = range.hi;
        // ... at exactly the spec's cuts, which balance decoded codes
        // and end the last shard at `total`.
        const auto [lo, hi] =
                decoder.shardRange(range.shardIndex, range.shardCount);
        if (range.lo != lo || range.hi != hi)
            fail(name + " covers " + range_text(range.lo, range.hi) +
                 ", but this spec cuts it at " + range_text(lo, hi));
        // The shard decodes or feasibility-skips exactly the canonical
        // codes of its range, and decodes exactly the feasible ones:
        // closed-form counts the file cannot move.
        const std::int64_t canonical = decoder.canonicalBelow(range.hi) -
                                       decoder.canonicalBelow(range.lo);
        if (shard.stats.feasibilitySkipped + shard.stats.decoded !=
            canonical)
            fail("shard " + std::to_string(range.shardIndex) + " counts " +
                 std::to_string(shard.stats.feasibilitySkipped +
                                shard.stats.decoded) +
                 " feasibility-skipped + decoded codes, but its range "
                 "holds " +
                 std::to_string(canonical) + " canonical codes");
        const std::int64_t feasible = decoder.feasibleBelow(range.hi) -
                                      decoder.feasibleBelow(range.lo);
        if (shard.stats.decoded != feasible)
            fail("shard " + std::to_string(range.shardIndex) +
                 " decoded " + std::to_string(shard.stats.decoded) +
                 " codes, but its range holds " + std::to_string(feasible) +
                 " feasible codes");
    }
    const std::size_t analytic_top_k = std::size_t(config.analyticTopK);
    AnalyticTopK<std::int64_t> top(analytic_top_k);
    // Each signature with the last shard that yielded it (by entry
    // number). A shard's scan dedups locally, so a repeat within one
    // shard is a forged record.
    dataflow::detail::SignatureSet signatures;
    std::vector<std::int64_t> owners;
    std::size_t records = 0;
    for (const ShardRecords &shard : shards)
        records += shard.records.size();
    const std::size_t width = decoder.signatureWidth();
    signatures.reserve(records, width);
    owners.reserve(records);
    // Rejected and duplicate codes through the consumed shards, then
    // through the stop. Every other counter is a closed form of the
    // codes examined, which the checks above and below pin each shard's
    // counts to.
    std::int64_t yielded = 0;
    std::int64_t examined = total;
    std::int64_t rejected = 0;
    std::int64_t duplicates = 0;
    bool limited = false;
    std::optional<ChunkDecoder> chunks;
    chunks.emplace(shards, records, functional, enumerateOptionsFor(config),
                   bounds, config.maxPes, eval.threads, decoder);
    // Add the stats of the shards before `end`, whose walks are done.
    std::size_t folded = 0;
    auto foldShardsBefore = [&](const ShardRecords *end) {
        for (; folded < shards.size() && &shards[folded] != end; folded++) {
            rejected += shards[folded].stats.rejected;
            duplicates += shards[folded].stats.duplicates;
        }
    };
    std::int64_t least_rejected = 0;
    while (const DecodedChunk *chunk = chunks->next()) {
        const ShardRecords &shard = *chunk->shard;
        const std::int64_t shard_index = shard.range.shardIndex;
        if (chunk->first == 0) {
            foldShardsBefore(&shard);
            least_rejected = 0;
        }
        for (std::size_t i = chunk->first; i < chunk->end; i++) {
            const CandidateRecord &record = shard.records[i];
            const std::size_t k = i - chunk->first;
            if (!chunk->survivor[k])
                fail("record code " + std::to_string(record.code) +
                     " does not decode to an orbit-canonical survivor");
            // Through its (i+1)-th yield the scan decoded decoded_after
            // codes, and rejected every one it neither yielded nor found
            // a duplicate: a count that only grows, up to the shard's.
            const std::int64_t rejected_after = chunk->decodedAfter[k] -
                                                record.duplicatesAfter -
                                                std::int64_t(i + 1);
            if (rejected_after < least_rejected ||
                rejected_after > shard.stats.rejected)
                fail("record code " + std::to_string(record.code) +
                     " derives rejected_after " +
                     std::to_string(rejected_after) + " (decoded_after " +
                     std::to_string(chunk->decodedAfter[k]) +
                     " - duplicates_after " +
                     std::to_string(record.duplicatesAfter) + " - yields " +
                     std::to_string(i + 1) + "), outside [" +
                     std::to_string(least_rejected) + ", " +
                     std::to_string(shard.stats.rejected) +
                     "] (the previous record's and the shard's rejected)");
            least_rejected = rejected_after;
            auto [entry, fresh] = signatures.insert(
                    {chunk->signatures.data() + k * width, width},
                    chunk->hashes[k]);
            if (!fresh) {
                if (owners[entry] == shard_index)
                    fail("record code " + std::to_string(record.code) +
                         " repeats a signature its own shard yielded");
                // An earlier shard yielded the signature — the
                // single-process walk would have counted it a duplicate.
                owners[entry] = shard_index;
                duplicates++;
                continue;
            }
            owners.push_back(shard_index);
            std::size_t index = std::size_t(yielded);
            yielded++;
            if (chunk->error && i == chunk->failed)
                std::rethrow_exception(chunk->error);
            if (chunk->pruned[k]) {
                local.prunedEarly++;
            } else {
                top.offer({record.saturated, record.score, index},
                          record.code);
            }
            if (yielded >= config.enumLimit) {
                // The ranges tile [0, total), so the stop examined
                // every code through this one.
                examined = record.code + 1;
                rejected += rejected_after;
                duplicates += record.duplicatesAfter;
                limited = true;
                break;
            }
        }
        if (limited)
            break;
    }
    if (!limited)
        foldShardsBefore(nullptr);
    chunks.reset(); // a stop joins its running decodes before elaboration

    const std::int64_t canonical = decoder.canonicalBelow(examined);
    local.enumeration.codesTotal = total;
    local.enumeration.codesExamined = examined;
    local.enumeration.orbitSkipped = examined - canonical;
    local.enumeration.decoded = decoder.feasibleBelow(examined);
    local.enumeration.feasibilitySkipped =
            canonical - local.enumeration.decoded;
    local.enumeration.rejected = rejected;
    local.enumeration.duplicates = duplicates;
    local.enumeration.yielded = yielded;
    local.enumerated = std::size_t(yielded);
    local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);
    if (top.offered() > analytic_top_k) {
        local.analyticRanked = top.offered();
        local.analyticFiltered = top.offered() - top.kept();
    }
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
            work;
    for (const auto &entry : top.takeInIndexOrder())
        work.emplace_back(entry.key.index,
                          decoder.transform(entry.payload, entry.key.index));
    // The shard scans did the scoring; the fold scores nothing, so the
    // whole walk is enumeration time and analyticMs stays 0.
    local.enumerateMs = std::chrono::duration<double, std::milli>(
                                Clock::now() - enumerate_start)
                                .count();

    // Elaborate the folded survivors through exactly the back half a
    // single-process run uses.
    DseOptions options;
    options.enumerate = enumerateOptionsFor(config);
    options.enumerate.limit = std::size_t(config.enumLimit);
    options.topK = std::size_t(config.topK);
    options.threads = eval.threads;
    options.maxPes = config.maxPes;
    options.analyticTopK = analytic_top_k;
    options.stepBudget = eval.stepBudget;
    options.timeBudgetMillis = eval.timeBudgetMillis;
    options.retryWallClockTimeout = eval.retryWallClockTimeout;
    options.isolateFailures = eval.isolateFailures;
    auto candidates = evaluateAndRank(std::move(work), functional, bounds,
                                      options, area_params, timing_params,
                                      local);
    if (stats)
        *stats = local;
    return candidates;
}

std::string
corruptShardRecords(std::string text, RecordsCorruption mode)
{
    switch (mode) {
      case RecordsCorruption::TruncateTail:
        text.resize(text.size() / 2);
        return text;
      case RecordsCorruption::FlipByte: {
        // Flip a digit inside the payload so the document still parses
        // but the checksum no longer matches.
        std::size_t at = text.find("\"payload\":");
        for (at = at == std::string::npos ? 0 : at; at < text.size();
             at++) {
            if (text[at] >= '0' && text[at] <= '8') {
                text[at] = char(text[at] + 1);
                return text;
            }
        }
        return text;
      }
      case RecordsCorruption::VersionBump: {
        std::size_t at = text.find("\"version\":");
        if (at != std::string::npos)
            text.replace(at, 10, "\"version\":9");
        return text;
      }
      case RecordsCorruption::ChecksumClobber: {
        std::size_t at = text.find("\"checksum\":\"");
        if (at != std::string::npos)
            text[at + 12] = text[at + 12] == '0' ? '1' : '0';
        return text;
      }
      case RecordsCorruption::GarbageHeader:
        return "\x7f" "ELF not json at all" + text;
    }
    return text;
}

} // namespace stellar::accel
