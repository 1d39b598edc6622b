/**
 * @file
 * The two DSE workloads and their per-layer probes.
 *
 * dse_sweep runs the standard hop-3 sweep through exploreDataflows.
 * dse_shard runs the same sweep as concurrent scanShard calls whose
 * records are serialized, parsed and merged: the same scan used a
 * second way, with the records format on the blocking path.
 */

#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "accel/analytic_cost.hpp"
#include "accel/dse.hpp"
#include "accel/records.hpp"
#include "accel/report.hpp"
#include "func/library.hpp"

namespace perfbench
{

namespace
{

using namespace stellar;

/**
 * Digest of the standard sweep's ranking and its stats report without
 * timings or thread count (see sweepDigestText). Rankings are
 * byte-identical at any thread count, so one digest holds on any host.
 */
constexpr const char *kSweepDigest = "11b7349aa96a28eb";

/** The ROADMAP's standard hop-3 sweep: matmul 8x8x8, max_hop 3,
 *  max_coeff 3, enum_limit 30000, topk 16, analytic_top_k 16. */
struct Sweep
{
    func::FunctionalSpec spec = func::matmulSpec();
    IntVec bounds{8, 8, 8};
    accel::DseOptions options;
    model::AreaParams area;
    model::TimingParams timing;

    explicit Sweep(std::size_t threads)
    {
        options.threads = threads;
        options.topK = 16;
        options.analyticTopK = 16;
        options.enumerate.maxHopLength = 3;
        options.enumerate.minCoeff = -3;
        options.enumerate.maxCoeff = 3;
        options.enumerate.limit = 30000;
        options.enumerate.threads = threads;
    }

    accel::ShardConfig
    shardConfig() const
    {
        accel::ShardConfig config;
        config.dim = bounds[0];
        config.maxHop = options.enumerate.maxHopLength;
        config.maxCoeff = options.enumerate.maxCoeff;
        config.topK = std::int64_t(options.topK);
        config.analyticTopK = std::int64_t(options.analyticTopK);
        config.enumLimit = std::int64_t(options.enumerate.limit);
        return config;
    }
};

/** Every field of every ranked candidate, doubles to full precision. */
std::string
rankingText(const std::vector<accel::DseCandidate> &candidates)
{
    std::string out;
    for (const auto &c : candidates) {
        char buffer[256];
        std::snprintf(buffer, sizeof(buffer),
                      "%zu %lld %lld %lld %lld %.17g %.17g %.17g |",
                      c.enumIndex, (long long)c.pes, (long long)c.wires,
                      (long long)c.wireLength, (long long)c.scheduleLength,
                      c.fmaxMhz, c.areaUm2, c.score);
        out += buffer;
        const auto &m = c.transform.matrix();
        for (int r = 0; r < m.rows(); r++)
            out += " " + vecToString(m.row(r));
        out += "\n";
    }
    return out;
}

std::string
sweepDigestText(const std::vector<accel::DseCandidate> &ranking,
                const accel::DseStats &stats)
{
    accel::DseStats report = stats;
    report.threadsUsed = 0; // the host's CPU count is not an output
    return rankingText(ranking) + accel::dseStatsReport(report, false);
}

std::vector<accel::DseCandidate>
explore(const Sweep &sweep, accel::DseStats &stats)
{
    return accel::exploreDataflows(sweep.spec, sweep.bounds, sweep.options,
                                   sweep.area, sweep.timing, &stats);
}

/** The shard order handed to the merge: a seeded permutation, since the
 *  merged ranking must not depend on it. */
std::vector<std::size_t>
shardOrder(std::uint64_t seed, std::size_t shards)
{
    std::vector<std::size_t> order(shards);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed ^ 0x5d5eedull);
    rng.shuffle(order);
    return order;
}

/** What one dse_shard op measured, beyond its wall time. */
struct ShardOp
{
    std::vector<accel::DseCandidate> merged;
    std::int64_t bytes = 0;
    std::vector<std::int64_t> survivors;
};

ShardOp
shardOp(const Sweep &sweep, const std::vector<std::size_t> &order,
        std::uint64_t op)
{
    Span op_span("dse_shard.op", op);
    const std::size_t shards = order.size();
    const accel::ShardConfig config = sweep.shardConfig();
    std::vector<std::string> texts(shards);
    std::vector<std::exception_ptr> errors(shards);
    {
        // One scan per shard, one thread each, as nproc shard processes
        // would run; each serializes its own records, as `--shard` does.
        std::vector<std::thread> workers;
        for (std::size_t i = 0; i < shards; i++) {
            workers.emplace_back([&, i] {
                try {
                    accel::ShardRecords records;
                    {
                        Span span("accel.records_scan", op, op_span.id());
                        records = accel::scanShard(
                                sweep.spec, sweep.bounds, config,
                                std::int64_t(i), std::int64_t(shards), 1,
                                sweep.area, sweep.timing);
                    }
                    Span span("accel.records_serialize", op, op_span.id());
                    texts[i] = accel::serializeShardRecords(records);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        for (auto &worker : workers)
            worker.join();
    }
    for (const auto &error : errors)
        if (error)
            std::rethrow_exception(error);

    // The merge side parses the shards one after another, in the seeded
    // order, as `stellar_cli merge` loads its inputs. (Parsing them on
    // parallel threads was tried: it made peak RSS vary 2x between runs
    // through per-thread malloc arenas and did not steady the op time.)
    ShardOp result;
    std::vector<accel::ShardRecords> parsed;
    for (std::size_t index : order) {
        Span span("accel.records_parse", op, op_span.id());
        result.bytes += std::int64_t(texts[index].size());
        parsed.push_back(accel::parseShardRecords(texts[index]));
        result.survivors.push_back(
                std::int64_t(parsed.back().records.size()));
    }
    accel::MergeEvalOptions eval;
    eval.threads = sweep.options.threads;
    Span span("accel.records_merge", op, op_span.id());
    result.merged = accel::mergeShardRecords(std::move(parsed), sweep.spec,
                                             sweep.bounds, eval, sweep.area,
                                             sweep.timing, nullptr);
    return result;
}

/** Check one sweep output; returns false (and notes why) if wrong. */
bool
checkSweep(const std::vector<accel::DseCandidate> &ranking,
           const accel::DseStats &stats, Perturber &perturber,
           RunResult &result)
{
    std::string digest =
            digestHex(perturber.apply(sweepDigestText(ranking, stats)));
    if (digest == kSweepDigest)
        return true;
    result.note("dse_sweep: ranking/stats digest " + digest +
                " != pinned " + kSweepDigest);
    return false;
}

} // namespace

RunResult
runDseSweep(const RunConfig &config)
{
    RunResult result;
    Perturber perturber(config.perturbEvery);
    const std::size_t threads = hostThreads();
    // Set-up is building the sweep and one untimed warm-up sweep;
    // repeated so its median is steady.
    for (int i = 0; i < kSetups; i++) {
        auto start = Clock::now();
        Sweep sweep(threads);
        accel::DseStats stats;
        explore(sweep, stats);
        result.setupS.push_back(msSince(start) / 1000.0);
    }
    Sweep sweep(threads);
    timedLoop(config, kMinOps, result, [&] {
        std::uint64_t op = tracer().enabled() ? tracer().newId() : 0;
        accel::DseStats stats;
        std::vector<accel::DseCandidate> ranking;
        {
            Span span("dse_sweep.op", op);
            ranking = explore(sweep, stats);
        }
        return checkSweep(ranking, stats, perturber, result);
    });
    return result;
}

RunResult
runDseShard(const RunConfig &config)
{
    RunResult result;
    Perturber perturber(config.perturbEvery);
    const std::size_t threads = hostThreads();
    Sweep sweep(threads);
    const auto order = shardOrder(config.seed, threads);

    // The reference is the single-process ranking; it is the benchmark's
    // check, not the workload's set-up, so it is not timed.
    accel::DseStats stats;
    auto reference = explore(sweep, stats);
    Perturber exact;
    if (!checkSweep(reference, stats, exact, result))
        throw std::runtime_error("dse_shard: reference sweep is wrong");
    const std::string expected = rankingText(reference);

    for (int i = 0; i < kSetups; i++) {
        auto start = Clock::now();
        Sweep fresh(threads);
        shardOp(fresh, order, 0);
        result.setupS.push_back(msSince(start) / 1000.0);
    }
    timedLoop(config, kMinOps, result, [&] {
        std::uint64_t op = tracer().enabled() ? tracer().newId() : 0;
        ShardOp shard = shardOp(sweep, order, op);
        if (perturber.apply(rankingText(shard.merged)) == expected)
            return true;
        result.note("dse_shard: merged ranking differs from dse_sweep's");
        return false;
    });
    return result;
}

namespace
{

/** One pass of the decomposed sweep beside the fused one. */
struct DsePass
{
    double scanMs = 0.0, scoreMs = 0.0, elaborateMs = 0.0, exploreMs = 0.0;
    dataflow::EnumerateStats scan;
    std::size_t scored = 0;
    accel::DseStats elaborate;
    accel::DseStats fused;
    bool rankingsEqual = false;
};

DsePass
dsePass(const Sweep &sweep)
{
    DsePass pass;
    const std::uint64_t op = tracer().newId();

    // Scan alone: the coefficient walk with a sink that keeps nothing.
    {
        Span span("dataflow.scan", op);
        dataflow::forEachTransform(
                sweep.spec, sweep.options.enumerate,
                [](const dataflow::EnumeratedTransform &) { return true; },
                &pass.scan);
    }

    // The yielded stream, materialized outside any span so scoring is
    // timed alone.
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>> yielded;
    dataflow::forEachTransform(
            sweep.spec, sweep.options.enumerate,
            [&](const dataflow::EnumeratedTransform &item) {
                yielded.emplace_back(item.index, item.transform);
                return true;
            });
    pass.scored = yielded.size();

    // Analytic tier over the stream, with the same (saturated, score,
    // enumIndex) top-K selection exploreDataflows applies.
    struct Ranked
    {
        bool saturated;
        double score;
        std::size_t index;
    };
    std::vector<Ranked> scored;
    {
        Span span("accel.score", op);
        accel::AnalyticCostModel model(sweep.spec, sweep.bounds,
                                       sweep.options.sparsity,
                                       sweep.options.dataWidth,
                                       sweep.options.macBits, sweep.area,
                                       sweep.timing);
        scored.reserve(yielded.size());
        for (std::size_t i = 0; i < yielded.size(); i++) {
            auto analytic = model.score(yielded[i].second);
            scored.push_back({analytic.saturated, analytic.score, i});
        }
        std::size_t keep = std::min(sweep.options.analyticTopK, scored.size());
        std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                          [&](const Ranked &a, const Ranked &b) {
                              if (a.saturated != b.saturated)
                                  return !a.saturated;
                              if (a.score != b.score)
                                  return a.score < b.score;
                              return yielded[a.index].first <
                                     yielded[b.index].first;
                          });
        scored.resize(keep);
    }
    std::sort(scored.begin(), scored.end(),
              [](const Ranked &a, const Ranked &b) { return a.index < b.index; });
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>> work;
    for (const auto &ranked : scored)
        work.push_back(yielded[ranked.index]);

    std::vector<accel::DseCandidate> decomposed;
    {
        Span span("accel.elaborate", op);
        decomposed = accel::evaluateAndRank(std::move(work), sweep.spec,
                                            sweep.bounds, sweep.options,
                                            sweep.area, sweep.timing,
                                            pass.elaborate);
    }

    std::vector<accel::DseCandidate> fused;
    {
        Span span("accel.explore", op);
        fused = explore(sweep, pass.fused);
    }
    pass.rankingsEqual = rankingText(decomposed) == rankingText(fused);
    pass.scanMs = tracer().totalMs("dataflow.scan", op);
    pass.scoreMs = tracer().totalMs("accel.score", op);
    pass.elaborateMs = tracer().totalMs("accel.elaborate", op);
    pass.exploreMs = tracer().totalMs("accel.explore", op);
    return pass;
}

} // namespace

void
probeDse(JsonOut &layers, RunResult &result)
{
    // Three passes; times are their medians, counts repeat exactly.
    Sweep sweep(hostThreads());
    std::vector<DsePass> passes;
    for (int i = 0; i < 3; i++) {
        passes.push_back(dsePass(sweep));
        result.attempted++;
        if (!passes.back().rankingsEqual) {
            result.failed++;
            result.note("dse probe: scan -> score -> evaluateAndRank "
                        "ranking differs from exploreDataflows");
        }
    }
    auto med = [&](auto field) {
        std::vector<double> values;
        for (const auto &pass : passes)
            values.push_back(field(pass));
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    const DsePass &last = passes.back();
    const double scan_ms = med([](const DsePass &p) { return p.scanMs; });
    const double score_ms = med([](const DsePass &p) { return p.scoreMs; });
    const double elaborate_ms =
            med([](const DsePass &p) { return p.elaborateMs; });
    const double explore_ms = med([](const DsePass &p) { return p.exploreMs; });
    layers.field("dataflow.scan_ms", scan_ms);
    layers.field("dataflow.codes_examined", last.scan.codesExamined);
    layers.field("dataflow.orbit_skipped", last.scan.orbitSkipped);
    layers.field("dataflow.decoded", last.scan.decoded);
    layers.field("dataflow.yielded", last.scan.yielded);
    layers.field("dataflow.yield_ratio",
                 last.scan.decoded == 0 ? 0.0
                                        : double(last.scan.yielded) /
                                                  double(last.scan.decoded));
    layers.field("accel.score_ms", score_ms);
    layers.field("accel.scored", std::int64_t(last.scored));
    layers.field("accel.score_per_s",
                 double(last.scored) / (score_ms / 1000.0));
    layers.field("accel.elaborate_ms", elaborate_ms);
    layers.field("accel.evaluated", std::int64_t(last.elaborate.evaluated));
    layers.field("accel.failed", std::int64_t(last.elaborate.failed));
    layers.field("accel.survivor_ratio",
                 last.fused.enumerated == 0
                         ? 0.0
                         : double(last.fused.evaluated) /
                                   double(last.fused.enumerated));
    layers.field("accel.explore_ms", explore_ms);
    layers.field("accel.explore_gap_ms",
                 med([](const DsePass &p) {
                     return p.exploreMs -
                            (p.scanMs + p.scoreMs + p.elaborateMs);
                 }));
    // exploreDataflows' own phase timers, beside the measured spans.
    layers.field("accel.dsestats_enumerate_ms",
                 med([](const DsePass &p) { return p.fused.enumerateMs; }));
    layers.field("accel.dsestats_analytic_ms",
                 med([](const DsePass &p) { return p.fused.analyticMs; }));
    layers.field("accel.dsestats_evaluate_ms",
                 med([](const DsePass &p) { return p.fused.evaluateMs; }));
    layers.field("accel.dsestats_rank_ms",
                 med([](const DsePass &p) { return p.fused.rankMs; }));
}

void
probeRecords(const RunConfig &config, JsonOut &layers, RunResult &result)
{
    const std::size_t threads = hostThreads();
    Sweep sweep(threads);
    accel::DseStats stats;
    const std::string expected = rankingText(explore(sweep, stats));
    const std::uint64_t op = tracer().newId();
    ShardOp shard = shardOp(sweep, shardOrder(config.seed, threads), op);
    result.attempted++;
    if (rankingText(shard.merged) != expected) {
        result.failed++;
        result.note("records probe: merged ranking differs");
    }
    std::int64_t total = std::accumulate(shard.survivors.begin(),
                                         shard.survivors.end(),
                                         std::int64_t(0));
    std::int64_t most = *std::max_element(shard.survivors.begin(),
                                          shard.survivors.end());
    double mean = double(total) / double(shard.survivors.size());
    layers.field("accel.records_scan_max_ms",
                 tracer().maxMs("accel.records_scan", op));
    layers.field("accel.records_scan_sum_ms",
                 tracer().totalMs("accel.records_scan", op));
    layers.field("accel.records_bytes", shard.bytes);
    layers.field("accel.records_survivors", total);
    layers.field("accel.records_serialize_ms",
                 tracer().totalMs("accel.records_serialize", op));
    layers.field("accel.records_parse_ms",
                 tracer().totalMs("accel.records_parse", op));
    layers.field("accel.records_merge_ms",
                 tracer().totalMs("accel.records_merge", op));
    layers.field("accel.records_skew", mean == 0.0 ? 0.0 : double(most) / mean);
}

std::string
describeDseInputs(std::uint64_t seed)
{
    std::string out = "sweep: matmul 8x8x8 max_hop 3 max_coeff 3 "
                      "enum_limit 30000 topk 16 analytic_top_k 16\n"
                      "merge order:";
    for (std::size_t index : shardOrder(seed, hostThreads()))
        out += " " + std::to_string(index);
    return out + "\n";
}

} // namespace perfbench
