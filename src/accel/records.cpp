#include "accel/records.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "accel/analytic.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/memo.hpp"

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
// C, R, S and each record E are flat objects whose keys come in the
// order the visitFields overloads below list. Those overloads are the
// one description of each section: the writer and the reader both walk
// them, so the two cannot drift.

template <typename T, typename Section>
concept SectionOf = std::same_as<std::remove_const_t<Section>, T>;

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
    visit("examined_after", record.examinedAfter);
    visit("decoded_after", record.decodedAfter);
    visit("rejected_after", record.rejectedAfter);
    visit("duplicates_after", record.duplicatesAfter);
}

void
appendInt(std::string &out, std::int64_t value)
{
    char buffer[24];
    char *end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
    out.append(buffer, end);
}

/** Append one section as a flat object in visitFields order. */
template <typename Section>
void
writeSection(std::string &out, const Section &section)
{
    char open = '{';
    visitFields(section, [&](std::string_view key, const auto &value) {
        out += open;
        open = ',';
        out += '"';
        out += key;
        out += "\":";
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>)
            out += value ? "true" : "false";
        else if constexpr (std::is_same_v<T, double>)
            out += util::json::serializeDouble(value);
        else
            appendInt(out, value);
    });
    out += '}';
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

    /** `{"key":` for a section's first field, `,"key":` for the rest. */
    void
    key(char open, std::string_view key)
    {
        if (!consume({&open, 1}) || !consume("\"") || !consume(key) ||
            !consume("\":"))
            fail(std::string("expected '") + open + "\"" +
                 std::string(key) + "\":'");
    }

    /** An integer as std::to_chars spells it: no '+', no leading
     *  zeros, no "-0"; false (cursor unmoved) otherwise. */
    bool
    integer(std::int64_t &value)
    {
        const char *first = text_.data() + pos_;
        const char *last = text_.data() + text_.size();
        auto [end, error] = std::from_chars(first, last, value);
        if (error != std::errc())
            return false;
        const char *digits = first + (*first == '-');
        if (*digits == '0' && (end - digits > 1 || digits != first))
            return false;
        pos_ = std::size_t(end - text_.data());
        return true;
    }

    void
    read(std::int64_t &value)
    {
        if (!integer(value))
            fail("expected an integer");
    }

    void
    read(double &value)
    {
        const char *first = text_.data() + pos_;
        auto [end, error] = std::from_chars(
                first, text_.data() + text_.size(), value);
        if (error != std::errc() || !std::isfinite(value))
            fail("expected a finite number");
        pos_ = std::size_t(end - text_.data());
    }

    void
    read(bool &value)
    {
        if (consume("true"))
            value = true;
        else if (consume("false"))
            value = false;
        else
            fail("expected true or false");
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
    char open = '{';
    visitFields(section, [&](std::string_view key, auto &value) {
        in.key(open, key);
        open = ',';
        in.read(value);
    });
    in.expect("}");
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

void
checkRecord(const CandidateRecord &record, const ShardRange &range,
            std::int64_t prev_code)
{
    if (record.code < range.lo || record.code >= range.hi)
        fail("record code " + std::to_string(record.code) +
             " outside the shard range");
    if (record.code <= prev_code)
        fail("record codes must be strictly increasing");
    // The scan covers its slice code by code, so through a yield it has
    // examined exactly the codes up to and including that yield's own.
    if (record.examinedAfter != record.code - range.lo + 1)
        fail("record examined_after disagrees with its code");
    if (record.decodedAfter < 1 || record.rejectedAfter < 0 ||
        record.duplicatesAfter < 0)
        fail("implausible record scan snapshot");
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
    out.reserve(512 + 176 * shard.records.size());
    out += kVersionHead;
    appendInt(out, kRecordsVersion);
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
    if (!head.consume(kVersionHead) || !head.integer(version))
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
    // Every record spells at least ~110 bytes, which bounds the
    // reservation a forged `yielded` can ask for.
    shard.records.reserve(std::size_t(std::min<std::int64_t>(
            shard.stats.yielded, std::int64_t(payload.size() / 64))));
    if (!in.consume("]")) {
        std::int64_t prev_code = std::numeric_limits<std::int64_t>::min();
        do {
            CandidateRecord &record = shard.records.emplace_back();
            readSection(in, record);
            checkRecord(record, shard.range, prev_code);
            prev_code = record.code;
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
        record.examinedAfter = item.examinedAfter;
        record.decodedAfter = item.decodedAfter;
        record.rejectedAfter = item.rejectedAfter;
        record.duplicatesAfter = item.duplicatesAfter;
    }
    out.stats = stream.stats();

    out.range.shardIndex = shard_index;
    out.range.shardCount = shard_count;
    out.range.codesTotal = out.stats.codesTotal;
    std::tie(out.range.lo, out.range.hi) = stream.range();
    return out;
}

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
    // Rejected and duplicate codes through the consumed shards, then
    // through the stop. Every other counter is a closed form of the
    // codes examined, which the checks above and below pin each shard's
    // counts to.
    std::int64_t yielded = 0;
    std::int64_t examined = total;
    std::int64_t rejected = 0;
    std::int64_t duplicates = 0;
    bool limited = false;
    for (const ShardRecords &shard : shards) {
        const std::int64_t shard_index = shard.range.shardIndex;
        const std::int64_t feasible_lo =
                decoder.feasibleBelow(shard.range.lo);
        for (const CandidateRecord &record : shard.records) {
            if (!decoder.canonical(record.code) ||
                !decoder.decode(record.code))
                fail("record code " + std::to_string(record.code) +
                     " does not decode to an orbit-canonical survivor");
            // The scan decodes every feasible code of its slice: through
            // a yield, exactly those up to and including its own code.
            const std::int64_t feasible =
                    decoder.feasibleBelow(record.code + 1) - feasible_lo;
            if (record.decodedAfter != feasible)
                fail("record code " + std::to_string(record.code) +
                     " claims decoded_after " +
                     std::to_string(record.decodedAfter) +
                     ", but its shard holds " + std::to_string(feasible) +
                     " feasible codes through it");
            auto [entry, fresh] = signatures.insert(decoder.signature());
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
            if (config.maxPes > 0 &&
                analyticPeCount(decoder.cells(), bounds) > config.maxPes) {
                local.prunedEarly++;
            } else {
                top.offer({record.saturated, record.score, index},
                          record.code);
            }
            if (yielded >= config.enumLimit) {
                // The ranges tile [0, total), so the stop examined
                // every code through this one.
                examined = record.code + 1;
                rejected += record.rejectedAfter;
                duplicates += record.duplicatesAfter;
                limited = true;
                break;
            }
        }
        if (limited)
            break;
        rejected += shard.stats.rejected;
        duplicates += shard.stats.duplicates;
    }

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
