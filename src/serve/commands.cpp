#include "serve/commands.hpp"

#include <cstdarg>
#include <cstdio>
#include <optional>

#include "accel/report.hpp"
#include "func/library.hpp"
#include "sim/outerspace.hpp"
#include "sim/run_many.hpp"
#include "sim/scnn.hpp"
#include "sparse/suitesparse.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"
#include "workloads/cache.hpp"

namespace stellar::serve
{

namespace
{

/** printf into a growing string — keeps the table formats below
 *  character-identical to the printf calls they moved out of. */
void
appendf(std::string &out, const char *format, ...)
{
    va_list args;
    va_start(args, format);
    char buffer[512];
    int wrote = std::vsnprintf(buffer, sizeof(buffer), format, args);
    va_end(args);
    if (wrote > 0)
        out.append(buffer, std::size_t(wrote) < sizeof(buffer)
                                   ? std::size_t(wrote)
                                   : sizeof(buffer) - 1);
}

/** The ranked-candidate table shared by renderDse and renderMerge —
 *  one renderer, so shard/merge byte-identity is structural. */
std::string
candidateTable(const std::vector<accel::DseCandidate> &candidates)
{
    std::string out;
    appendf(out, "rank  PEs     steps   score      transform (rows)\n");
    int rank = 1;
    for (const auto &candidate : candidates) {
        std::string rows;
        const auto &m = candidate.transform.matrix();
        for (int r = 0; r < m.rows(); r++)
            rows += vecToString(m.row(r)) + (r + 1 < m.rows() ? " " : "");
        appendf(out, "%-5d %-7lld %-7lld %-10.4g %s\n", rank++,
                (long long)candidate.pes,
                (long long)candidate.scheduleLength, candidate.score,
                rows.c_str());
    }
    return out;
}

} // namespace

RenderResult
renderSim(const SimRequest &request)
{
    // The scope is cloned per workload point by sim::runMany, so both
    // budgets bound each point independently at every thread count.
    std::optional<util::WatchdogScope> scope;
    if (request.stepBudget > 0 || request.timeBudgetMillis > 0)
        scope.emplace("cli.sim", request.stepBudget,
                      request.timeBudgetMillis);

    RenderResult result;
    if (request.workload == "scnn") {
        sim::ScnnConfig handwritten;
        sim::ScnnConfig generated;
        generated.stellarGenerated = true;
        const auto layers_ptr = workloads::cachedAlexnetLayers();
        const auto &layers = *layers_ptr;
        struct Point
        {
            sim::ScnnResult hand, gen;
        };
        auto points = sim::runMany(
                layers.size(), request.threads, [&](std::size_t i) {
                    Point point;
                    point.hand = sim::simulateScnnLayer(handwritten,
                                                        layers[i], 1);
                    point.gen = sim::simulateScnnLayer(generated,
                                                       layers[i], 1);
                    return point;
                });
        appendf(result.output,
                "layer    handwritten  stellar-gen  relative\n");
        for (std::size_t i = 0; i < layers.size(); i++) {
            double hand = points[i].hand.utilization;
            double gen = points[i].gen.utilization;
            appendf(result.output, "%-8s %10.1f%% %11.1f%% %8.1f%%\n",
                    layers[i].name, 100.0 * hand, 100.0 * gen,
                    100.0 * gen / hand);
        }
        return result;
    }
    if (request.workload == "outerspace") {
        sim::OuterSpaceConfig config;
        config.dma = sim::DmaConfig::withRate(16);
        const auto &profiles = sparse::outerSpaceSuite();
        struct Point
        {
            std::int64_t nnz = 0;
            sim::OuterSpaceResult result;
        };
        auto points = sim::runMany(
                profiles.size(), request.threads, [&](std::size_t i) {
                    auto matrix = workloads::cachedSuiteSparse(
                            sparse::scaleProfile(profiles[i], 60000), 1);
                    Point point;
                    point.nnz = matrix->nnz();
                    point.result =
                            sim::simulateOuterSpace(config, *matrix);
                    return point;
                });
        appendf(result.output,
                "matrix           nnz      cycles       GF/s@1.5GHz\n");
        for (std::size_t i = 0; i < profiles.size(); i++) {
            const auto &point = points[i];
            appendf(result.output, "%-14s %7lld %11lld %10.2f\n",
                    profiles[i].name.c_str(), (long long)point.nnz,
                    (long long)point.result.cycles,
                    point.result.gflops(1.5));
        }
        return result;
    }
    throw FatalError("unknown sim workload '" + request.workload +
                     "' (scnn | outerspace)");
}

accel::DseOptions
dseOptionsFor(const DseRequest &request, accel::DesignPointMemo *memo)
{
    accel::DseOptions options;
    options.threads = request.threads;
    options.enumerate.threads = request.threads;
    options.topK = request.topK;
    options.maxPes = request.maxPes;
    options.analyticTopK = request.analyticTopK;
    options.enumerate.maxHopLength = request.maxHop;
    options.enumerate.minCoeff = -request.maxCoeff;
    options.enumerate.maxCoeff = request.maxCoeff;
    options.enumerate.limit = request.enumLimit;
    options.stepBudget = request.stepBudget;
    options.timeBudgetMillis = request.timeBudgetMillis;
    options.retryWallClockTimeout = request.retryWallClock;
    options.isolateFailures = !request.failFast;
    if (memo != nullptr) {
        options.memo = memo;
        // The spec side of the key: the matmul spec and the default
        // area/timing params are fixed per dim here, so the dim is the
        // whole spec identity (bounds/widths are folded in by
        // candidateKey itself).
        options.memoSpecKey = "matmul:dim=" + std::to_string(request.dim);
    }
    return options;
}

RenderResult
renderDse(const DseRequest &request, accel::DesignPointMemo *memo)
{
    accel::DseOptions options = dseOptionsFor(request, memo);
    model::AreaParams area_params;
    model::TimingParams timing_params;
    RenderResult result;
    int dim = request.dim;
    auto candidates = accel::exploreDataflows(
            func::matmulSpec(), {dim, dim, dim}, options, area_params,
            timing_params, &result.dseStats);
    result.output += candidateTable(candidates);
    result.output += accel::dseStatsReport(result.dseStats,
                                           request.timings);
    result.exitCode = candidates.empty() ? 1 : 0;
    return result;
}

RenderResult
renderShardScan(const ShardScanRequest &request)
{
    if (request.shardCount < 1)
        throw FatalError("--shard: shard count must be >= 1");
    if (request.shardIndex < 0 || request.shardIndex >= request.shardCount)
        throw FatalError("--shard: shard index must be in [0, count)");
    if (request.outPath.empty())
        throw FatalError("--shard requires --emit-records FILE");
    if (request.dse.analyticTopK == 0)
        throw FatalError("--shard requires --analytic-top-k >= 1 "
                         "(shard scans are analytic-tier scans)");

    accel::ShardConfig config;
    config.dim = request.dse.dim;
    config.maxHop = request.dse.maxHop;
    config.maxCoeff = request.dse.maxCoeff;
    config.topK = std::int64_t(request.dse.topK);
    config.analyticTopK = std::int64_t(request.dse.analyticTopK);
    config.enumLimit = std::int64_t(request.dse.enumLimit);
    config.maxPes = request.dse.maxPes;

    model::AreaParams area_params;
    model::TimingParams timing_params;
    int dim = request.dse.dim;
    auto shard = accel::scanShard(func::matmulSpec(), {dim, dim, dim},
                                  config, request.shardIndex,
                                  request.shardCount, request.dse.threads,
                                  area_params, timing_params);
    accel::saveShardRecordsFile(shard, request.outPath);

    RenderResult result;
    appendf(result.output,
            "shard %lld/%lld: codes [%lld, %lld) of %lld, "
            "%lld records -> %s\n",
            (long long)shard.range.shardIndex,
            (long long)shard.range.shardCount, (long long)shard.range.lo,
            (long long)shard.range.hi, (long long)shard.range.codesTotal,
            (long long)shard.records.size(), request.outPath.c_str());
    return result;
}

RenderResult
renderMerge(const MergeRequest &request)
{
    if (request.inputs.empty())
        throw FatalError("merge: no shard records files given");

    std::vector<accel::ShardRecords> shards;
    shards.reserve(request.inputs.size());
    for (const auto &path : request.inputs)
        shards.push_back(accel::loadShardRecordsFile(path));

    accel::MergeEvalOptions eval;
    eval.threads = request.threads;
    eval.stepBudget = request.stepBudget;
    eval.timeBudgetMillis = request.timeBudgetMillis;
    eval.retryWallClockTimeout = request.retryWallClock;
    eval.isolateFailures = !request.failFast;

    model::AreaParams area_params;
    model::TimingParams timing_params;
    int dim = int(shards.front().config.dim);
    RenderResult result;
    auto candidates = accel::mergeShardRecords(
            std::move(shards), func::matmulSpec(), {dim, dim, dim}, eval,
            area_params, timing_params, &result.dseStats);
    result.output += candidateTable(candidates);
    result.output += accel::dseStatsReport(result.dseStats,
                                           request.timings);
    result.exitCode = candidates.empty() ? 1 : 0;
    return result;
}

} // namespace stellar::serve
