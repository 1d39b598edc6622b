#include "accel/records.hpp"

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "accel/analytic.hpp"
#include "accel/analytic_cost.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/memo.hpp"

namespace stellar::accel
{

namespace
{

namespace json = util::json;

using Clock = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string &what)
{
    throw FatalError("dse shard records: " + what);
}

std::string
checksumHex(const std::string &payload)
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

std::string
serializeConfig(const ShardConfig &config)
{
    std::string out = "{\"dim\":" + std::to_string(config.dim);
    out += ",\"max_hop\":" + std::to_string(config.maxHop);
    out += ",\"max_coeff\":" + std::to_string(config.maxCoeff);
    out += ",\"top_k\":" + std::to_string(config.topK);
    out += ",\"analytic_top_k\":" + std::to_string(config.analyticTopK);
    out += ",\"enum_limit\":" + std::to_string(config.enumLimit);
    out += ",\"max_pes\":" + std::to_string(config.maxPes);
    out += "}";
    return out;
}

std::string
serializeRange(const ShardRange &range)
{
    std::string out =
            "{\"shard_index\":" + std::to_string(range.shardIndex);
    out += ",\"shard_count\":" + std::to_string(range.shardCount);
    out += ",\"lo\":" + std::to_string(range.lo);
    out += ",\"hi\":" + std::to_string(range.hi);
    out += ",\"codes_total\":" + std::to_string(range.codesTotal);
    out += "}";
    return out;
}

std::string
serializeStats(const dataflow::EnumerateStats &stats)
{
    std::string out =
            "{\"codes_total\":" + std::to_string(stats.codesTotal);
    out += ",\"codes_examined\":" + std::to_string(stats.codesExamined);
    out += ",\"orbit_skipped\":" + std::to_string(stats.orbitSkipped);
    out += ",\"feasibility_skipped\":" +
           std::to_string(stats.feasibilitySkipped);
    out += ",\"decoded\":" + std::to_string(stats.decoded);
    out += ",\"rejected\":" + std::to_string(stats.rejected);
    out += ",\"duplicates\":" + std::to_string(stats.duplicates);
    out += ",\"yielded\":" + std::to_string(stats.yielded);
    out += "}";
    return out;
}

std::string
serializeRecord(const CandidateRecord &record)
{
    std::string out = "{\"code\":" + std::to_string(record.code);
    out += ",\"saturated\":";
    out += record.saturated ? "true" : "false";
    out += ",\"score\":" + json::serializeDouble(record.score);
    out += ",\"examined_after\":" + std::to_string(record.examinedAfter);
    out += ",\"decoded_after\":" + std::to_string(record.decodedAfter);
    out += ",\"rejected_after\":" + std::to_string(record.rejectedAfter);
    out += ",\"duplicates_after\":" +
           std::to_string(record.duplicatesAfter);
    out += "}";
    return out;
}

std::string
serializePayload(const ShardRecords &shard)
{
    std::string out = "{\"config\":" + serializeConfig(shard.config);
    out += ",\"range\":" + serializeRange(shard.range);
    out += ",\"stats\":" + serializeStats(shard.stats);
    out += ",\"records\":[";
    for (std::size_t i = 0; i < shard.records.size(); i++) {
        if (i != 0)
            out += ",";
        out += serializeRecord(shard.records[i]);
    }
    out += "]}";
    return out;
}

const json::Value &
member(const json::Value &object, const std::string &key)
{
    const json::Value *value = object.find(key);
    if (value == nullptr)
        fail("missing field '" + key + "'");
    return *value;
}

std::int64_t
intMember(const json::Value &object, const std::string &key)
{
    return json::toInt64(member(object, key),
                         "dse shard records: '" + key + "'");
}

double
numberMember(const json::Value &object, const std::string &key)
{
    const json::Value &value = member(object, key);
    if (!value.isNumber())
        fail("'" + key + "' must be a number");
    return value.number;
}

bool
boolMember(const json::Value &object, const std::string &key)
{
    const json::Value &value = member(object, key);
    if (!value.isBool())
        fail("'" + key + "' must be a boolean");
    return value.boolean;
}

ShardConfig
parseConfig(const json::Value &body)
{
    if (!body.isObject())
        fail("'config' must be an object");
    ShardConfig config;
    config.dim = intMember(body, "dim");
    config.maxHop = intMember(body, "max_hop");
    config.maxCoeff = intMember(body, "max_coeff");
    config.topK = intMember(body, "top_k");
    config.analyticTopK = intMember(body, "analytic_top_k");
    config.enumLimit = intMember(body, "enum_limit");
    config.maxPes = intMember(body, "max_pes");
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
    return config;
}

ShardRange
parseRange(const json::Value &body)
{
    if (!body.isObject())
        fail("'range' must be an object");
    ShardRange range;
    range.shardIndex = intMember(body, "shard_index");
    range.shardCount = intMember(body, "shard_count");
    range.lo = intMember(body, "lo");
    range.hi = intMember(body, "hi");
    range.codesTotal = intMember(body, "codes_total");
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
    // The only legitimate slice for (index, count) is the total*i/N
    // split; anything else overlaps or gaps a sibling shard.
    std::int64_t lo = range.codesTotal * range.shardIndex /
                      range.shardCount;
    std::int64_t hi = range.codesTotal * (range.shardIndex + 1) /
                      range.shardCount;
    if (range.lo != lo || range.hi != hi)
        fail("overlapping or gapped shard range [" +
             std::to_string(range.lo) + ", " + std::to_string(range.hi) +
             ") (shard " + std::to_string(range.shardIndex) + "/" +
             std::to_string(range.shardCount) + " owns [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "))");
    return range;
}

dataflow::EnumerateStats
parseStats(const json::Value &body, const ShardRange &range)
{
    if (!body.isObject())
        fail("'stats' must be an object");
    dataflow::EnumerateStats stats;
    stats.codesTotal = intMember(body, "codes_total");
    stats.codesExamined = intMember(body, "codes_examined");
    stats.orbitSkipped = intMember(body, "orbit_skipped");
    stats.feasibilitySkipped = intMember(body, "feasibility_skipped");
    stats.decoded = intMember(body, "decoded");
    stats.rejected = intMember(body, "rejected");
    stats.duplicates = intMember(body, "duplicates");
    stats.yielded = intMember(body, "yielded");
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
    return stats;
}

CandidateRecord
parseRecord(const json::Value &body, const ShardRange &range,
            std::size_t position, std::int64_t prev_code)
{
    if (!body.isObject())
        fail("record must be an object");
    CandidateRecord record;
    record.code = intMember(body, "code");
    if (record.code < range.lo || record.code >= range.hi)
        fail("record code " + std::to_string(record.code) +
             " outside the shard range");
    if (position > 0 && record.code <= prev_code)
        fail("record codes must be strictly increasing");
    record.saturated = boolMember(body, "saturated");
    record.score = numberMember(body, "score");
    record.examinedAfter = intMember(body, "examined_after");
    record.decodedAfter = intMember(body, "decoded_after");
    record.rejectedAfter = intMember(body, "rejected_after");
    record.duplicatesAfter = intMember(body, "duplicates_after");
    // The scan covers its slice code by code, so through a yield it has
    // examined exactly the codes up to and including that yield's own.
    if (record.examinedAfter != record.code - range.lo + 1)
        fail("record examined_after disagrees with its code");
    if (record.decodedAfter < 1 || record.rejectedAfter < 0 ||
        record.duplicatesAfter < 0)
        fail("implausible record scan snapshot");
    return record;
}

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
    std::string payload = serializePayload(shard);
    std::string out = "{\"version\":" + std::to_string(kRecordsVersion);
    out += ",\"kind\":\"stellar-dse-shard\"";
    out += ",\"checksum\":" + json::quote(checksumHex(payload));
    out += ",\"payload\":" + payload;
    out += "}";
    return out;
}

ShardRecords
parseShardRecords(const std::string &text)
{
    json::Value root = json::parse(text, "dse shard records");
    if (!root.isObject())
        fail("document must be an object");
    const json::Value *kind = root.find("kind");
    if (kind == nullptr || !kind->isString() ||
        kind->string != "stellar-dse-shard")
        fail("not a stellar-dse-shard file");
    std::int64_t version = intMember(root, "version");
    if (version != kRecordsVersion)
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(kRecordsVersion) + ")");

    // Re-serialize the parsed payload and compare checksums: any byte
    // that changed a value anywhere is caught here, before a single
    // record is admitted.
    const json::Value &payload = member(root, "payload");
    if (!payload.isObject())
        fail("'payload' must be an object");
    std::string canonical = json::serialize(payload);
    const json::Value &checksum = member(root, "checksum");
    if (!checksum.isString() ||
        checksum.string != checksumHex(canonical))
        fail("checksum mismatch (file damaged or hand-edited)");

    ShardRecords shard;
    shard.config = parseConfig(member(payload, "config"));
    shard.range = parseRange(member(payload, "range"));
    shard.stats = parseStats(member(payload, "stats"), shard.range);
    const json::Value &records = member(payload, "records");
    if (!records.isArray())
        fail("'records' must be an array");
    if (std::int64_t(records.array.size()) != shard.stats.yielded)
        fail("record count disagrees with stats.yielded");
    shard.records.reserve(records.array.size());
    std::int64_t prev_code = -1;
    for (std::size_t i = 0; i < records.array.size(); i++) {
        shard.records.push_back(parseRecord(records.array[i],
                                            shard.range, i, prev_code));
        prev_code = shard.records.back().code;
    }
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
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseShardRecords(text.str());
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

    // Score on the scan workers with the same annotators, model and
    // widths the single-process front half uses (DseOptions defaults —
    // renderDse never overrides them), so recorded scores merge
    // bit-for-bit.
    DseOptions front;
    front.maxPes = config.maxPes;
    front.analyticTopK = std::size_t(config.analyticTopK);
    std::atomic<std::int64_t> score_nanos{0};

    dataflow::forEachTransform(
            functional, enumerate,
            [&](const dataflow::EnumeratedTransform &item) {
                CandidateRecord record;
                record.code = item.code;
                // maxPes-pruned records are never scored — exactly like
                // the fused single-process sink. The merge re-derives
                // the prune from the code.
                const auto &verdict = std::any_cast<const FrontHalfVerdict &>(
                        item.annotation);
                if (!verdict.pruned) {
                    record.saturated = verdict.saturated;
                    record.score = verdict.score;
                }
                record.examinedAfter = item.examinedAfter;
                record.decodedAfter = item.decodedAfter;
                record.rejectedAfter = item.rejectedAfter;
                record.duplicatesAfter = item.duplicatesAfter;
                out.records.push_back(std::move(record));
                return true;
            },
            &out.stats,
            frontHalfAnnotators(functional, bounds, front, area_params,
                                timing_params, score_nanos));

    out.range.shardIndex = shard_index;
    out.range.shardCount = shard_count;
    out.range.codesTotal = out.stats.codesTotal;
    out.range.lo = out.range.codesTotal * shard_index / shard_count;
    out.range.hi = out.range.codesTotal * (shard_index + 1) / shard_count;
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
    // The per-file range formula is validated at parse time, so a
    // permutation of indices is exactly a partition of [0, total).
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
    // A shard decodes or feasibility-skips exactly the canonical codes
    // of its range, a closed-form count the file cannot move.
    for (const ShardRecords &shard : shards) {
        const std::int64_t canonical =
                decoder.canonicalBelow(shard.range.hi) -
                decoder.canonicalBelow(shard.range.lo);
        if (shard.stats.feasibilitySkipped + shard.stats.decoded !=
            canonical)
            fail("shard " + std::to_string(shard.range.shardIndex) +
                 " counts " +
                 std::to_string(shard.stats.feasibilitySkipped +
                                shard.stats.decoded) +
                 " feasibility-skipped + decoded codes, but its range "
                 "holds " +
                 std::to_string(canonical) + " canonical codes");
    }
    const std::size_t analytic_top_k = std::size_t(config.analyticTopK);
    AnalyticTopK<std::int64_t> top(analytic_top_k);
    // Signature -> the last shard that yielded it. A shard's scan dedups
    // locally, so a repeat within one shard is a forged record.
    std::map<std::vector<std::int64_t>, std::int64_t> owners;
    std::int64_t yielded = 0;
    std::int64_t merge_duplicates = 0;
    std::int64_t prior_examined = 0;
    std::int64_t prior_feasibility = 0;
    std::int64_t prior_decoded = 0;
    std::int64_t prior_rejected = 0;
    std::int64_t prior_duplicates = 0;
    std::int64_t last_examined = 0;
    std::int64_t last_decoded = 0;
    std::int64_t last_rejected = 0;
    std::int64_t last_duplicates = 0;
    bool limited = false;
    for (const ShardRecords &shard : shards) {
        const std::int64_t shard_index = shard.range.shardIndex;
        for (const CandidateRecord &record : shard.records) {
            if (!decoder.canonical(record.code) ||
                !decoder.decode(record.code))
                fail("record code " + std::to_string(record.code) +
                     " does not decode to an orbit-canonical survivor");
            auto owner = owners.try_emplace(decoder.signature(), shard_index);
            if (!owner.second) {
                if (owner.first->second == shard_index)
                    fail("record code " + std::to_string(record.code) +
                         " repeats a signature its own shard yielded");
                // An earlier shard yielded the signature — the
                // single-process walk would have counted it a duplicate.
                owner.first->second = shard_index;
                merge_duplicates++;
                continue;
            }
            std::size_t index = std::size_t(yielded);
            yielded++;
            last_examined = prior_examined + record.examinedAfter;
            last_decoded = prior_decoded + record.decodedAfter;
            last_rejected = prior_rejected + record.rejectedAfter;
            last_duplicates = prior_duplicates + record.duplicatesAfter +
                              merge_duplicates;
            if (config.maxPes > 0 &&
                analyticPeCount(
                        dataflow::SpaceTimeTransform(decoder.matrix()),
                        bounds) > config.maxPes) {
                local.prunedEarly++;
            } else {
                top.offer({record.saturated, record.score, index},
                          record.code);
            }
            if (yielded >= config.enumLimit) {
                limited = true;
                break;
            }
        }
        if (limited)
            break;
        prior_examined += shard.range.hi - shard.range.lo;
        prior_feasibility += shard.stats.feasibilitySkipped;
        prior_decoded += shard.stats.decoded;
        prior_rejected += shard.stats.rejected;
        prior_duplicates += shard.stats.duplicates;
    }

    local.enumeration.codesTotal = total;
    if (limited) {
        // The stop fell at a yield: the skips through its code are the
        // closed-form canonical count, less what the shard decoded.
        const std::int64_t canonical =
                decoder.canonicalBelow(last_examined);
        if (last_decoded > canonical)
            fail("a record claims " + std::to_string(last_decoded) +
                 " decoded codes where its range holds " +
                 std::to_string(canonical) + " canonical codes");
        local.enumeration.codesExamined = last_examined;
        local.enumeration.orbitSkipped = last_examined - canonical;
        local.enumeration.feasibilitySkipped = canonical - last_decoded;
        local.enumeration.decoded = last_decoded;
        local.enumeration.rejected = last_rejected;
        local.enumeration.duplicates = last_duplicates;
    } else {
        local.enumeration.codesExamined = prior_examined;
        local.enumeration.orbitSkipped =
                prior_examined - prior_feasibility - prior_decoded;
        local.enumeration.feasibilitySkipped = prior_feasibility;
        local.enumeration.decoded = prior_decoded;
        local.enumeration.rejected = prior_rejected;
        local.enumeration.duplicates = prior_duplicates +
                                       merge_duplicates;
    }
    local.enumeration.yielded = yielded;
    local.enumerated = std::size_t(yielded);
    local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);
    if (top.offered() > analytic_top_k) {
        local.analyticRanked = top.offered();
        local.analyticFiltered = top.offered() - top.kept();
    }
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
            work;
    for (const auto &entry : top.takeInIndexOrder()) {
        decoder.decode(entry.payload); // the walk proved it survives
        work.emplace_back(
                entry.key.index,
                dataflow::SpaceTimeTransform(
                        decoder.matrix(),
                        "enumerated-" + std::to_string(entry.key.index)));
    }
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
