/**
 * @file
 * Design-space-exploration ablation: the automated dataflow search that
 * motivates an *automated* design framework. Enumerates every distinct
 * causal dataflow for the matmul spec under coefficient/wiring
 * constraints, generates each accelerator, and reports the Pareto-style
 * leaders plus the raw exploration throughput.
 */

#include "bench_common.hpp"

#include "accel/analytic_cost.hpp"
#include "accel/dse.hpp"
#include "accel/report.hpp"
#include "func/library.hpp"

namespace
{

using namespace stellar;

void
report()
{
    bench::banner("Automated dataflow exploration (matmul, 8x8x8)");
    model::AreaParams area_params;
    model::TimingParams timing_params;

    for (std::int64_t hop : {1, 2}) {
        accel::DseOptions options;
        options.topK = 6;
        options.enumerate.maxHopLength = hop;
        accel::DseStats stats;
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {8, 8, 8}, options, area_params,
                timing_params, &stats);
        std::printf("\nmax hop length %lld: top %zu designs\n",
                    (long long)hop, candidates.size());
        std::printf("%s", accel::dseStatsReport(stats).c_str());
        bench::row({"PEs", "wires", "wirelen", "steps", "Fmax", "area",
                    "score"}, 10);
        bench::rule(7, 10);
        for (const auto &candidate : candidates) {
            bench::row({std::to_string(candidate.pes),
                        std::to_string(candidate.wires),
                        std::to_string(candidate.wireLength),
                        std::to_string(candidate.scheduleLength),
                        formatDouble(candidate.fmaxMhz, 0),
                        formatDouble(candidate.areaUm2 / 1e3, 0) + "K",
                        formatDouble(candidate.score * 1e9, 2)},
                       10);
        }
    }
    std::printf("\nEvery candidate passed invertibility and causality "
                "checks and ran through the\nfull generation pipeline "
                "(Fig 7) before being scored.\n");

    // Fast-path ablation: the same sweep with the exact maxPes prune
    // and with the analytic top-K tier, against the full single-phase
    // run. Both are lossless here, so the top designs match the full
    // run.
    std::printf("\nfast-path ablation (matmul 8x8x8, larger 12x12x12 "
                "elaboration)\n");
    bench::row({"mode", "evaluated", "skipped", "evaluate ms", "cand/s",
                "speedup"}, 12);
    bench::rule(6, 12);
    double full_ms = 0.0;
    for (int mode = 0; mode < 3; mode++) {
        accel::DseOptions options;
        options.topK = 6;
        options.threads = 1;
        if (mode == 1)
            options.maxPes = 256;
        if (mode == 2)
            options.analyticTopK = 24;
        accel::DseStats stats;
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {12, 12, 12}, options, area_params,
                timing_params, &stats);
        benchmark::DoNotOptimize(candidates);
        if (mode == 0)
            full_ms = stats.evaluateMs;
        const char *labels[] = {"full", "maxPes=256", "analytic-k=24"};
        double total_ms = stats.analyticMs + stats.evaluateMs;
        bench::row({labels[mode], std::to_string(stats.evaluated),
                    std::to_string(stats.prunedEarly +
                                   stats.analyticFiltered),
                    formatDouble(total_ms, 1),
                    formatDouble(stats.candidatesPerSecond(), 1),
                    formatDouble(full_ms / total_ms, 2) + "x"},
                   12);
    }

    // The analytic tier's headline act: a hop-3, coefficient-[-2,2]
    // space (thousands of candidates) that single-phase elaboration
    // makes painful. The closed-form tier scores all of it and only the
    // top-K survivors are elaborated; the exact scores mean the final
    // table equals what the full run would produce. All counters below
    // are deterministic; wall-derived values appear only on " ms"
    // lines.
    std::printf("\nhop-3 sweep (matmul 8x8x8, coeff [-2,2], "
                "analytic-top-k 12)\n");
    {
        accel::DseOptions options;
        options.topK = 6;
        options.enumerate.maxHopLength = 3;
        options.enumerate.minCoeff = -2;
        options.enumerate.maxCoeff = 2;
        options.enumerate.limit = 30000;
        options.analyticTopK = 12;
        accel::DseStats stats;
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {8, 8, 8}, options, area_params,
                timing_params, &stats);
        std::printf("%s", accel::dseStatsReport(stats).c_str());
        bench::row({"PEs", "wires", "wirelen", "steps", "Fmax", "area",
                    "score"}, 10);
        bench::rule(7, 10);
        for (const auto &candidate : candidates) {
            bench::row({std::to_string(candidate.pes),
                        std::to_string(candidate.wires),
                        std::to_string(candidate.wireLength),
                        std::to_string(candidate.scheduleLength),
                        formatDouble(candidate.fmaxMhz, 0),
                        formatDouble(candidate.areaUm2 / 1e3, 0) + "K",
                        formatDouble(candidate.score * 1e9, 2)},
                       10);
        }
    }

    // Failure surfacing: a starved step budget fails every candidate,
    // and the stats report breaks the failures down by kind.
    std::printf("\nfailure surfacing (stepBudget=10, every candidate "
                "times out)\n");
    {
        accel::DseOptions options;
        options.topK = 6;
        options.threads = 1;
        options.stepBudget = 10;
        accel::DseStats stats;
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {8, 8, 8}, options, area_params,
                timing_params, &stats);
        benchmark::DoNotOptimize(candidates);
        std::printf("%s", accel::dseStatsReport(stats).c_str());
    }

    // Parallel-scaling report: the same default sweep at 1/2/4 workers.
    // Rankings are identical at every thread count (deterministic
    // reduction); only the wall time changes.
    std::printf("\nparallel scaling (matmul 8x8x8, default sweep)\n");
    bench::row({"threads", "evaluate ms", "cand/s", "speedup"}, 12);
    bench::rule(4, 12);
    double serial_ms = 0.0;
    for (std::size_t threads : {1u, 2u, 4u}) {
        accel::DseOptions options;
        options.topK = 6;
        options.threads = threads;
        accel::DseStats stats;
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {8, 8, 8}, options, area_params,
                timing_params, &stats);
        benchmark::DoNotOptimize(candidates);
        if (threads == 1)
            serial_ms = stats.evaluateMs;
        bench::row({std::to_string(threads),
                    formatDouble(stats.evaluateMs, 1),
                    formatDouble(stats.candidatesPerSecond(), 1),
                    formatDouble(serial_ms / stats.evaluateMs, 2) + "x"},
                   12);
    }
}

void
BM_ExploreMatmulDataflows(benchmark::State &state)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.topK = 4;
    options.threads = std::size_t(state.range(0));
    for (auto _ : state) {
        auto candidates = accel::exploreDataflows(
                func::matmulSpec(), {4, 4, 4}, options, area_params,
                timing_params);
        benchmark::DoNotOptimize(candidates);
    }
}
BENCHMARK(BM_ExploreMatmulDataflows)
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Unit(benchmark::kMillisecond);

// Steady-state throughput of the closed-form scorer alone: one cost
// model, every hop-2 matmul transform scored per iteration. This is
// the per-candidate cost the analytic tier pays instead of
// core::generate.
void
BM_AnalyticScoreOnly(benchmark::State &state)
{
    auto spec = stellar::func::matmulSpec();
    stellar::IntVec bounds{8, 8, 8};
    stellar::model::AreaParams area_params;
    stellar::model::TimingParams timing_params;
    stellar::accel::AnalyticCostModel model(spec, bounds, {}, 8, 8,
                                            area_params, timing_params);
    std::vector<stellar::dataflow::SpaceTimeTransform> transforms;
    stellar::dataflow::forEachTransform(
            spec, stellar::dataflow::EnumerateOptions{},
            [&](const stellar::dataflow::EnumeratedTransform &item) {
                transforms.push_back(item.transform);
                return true;
            });
    std::int64_t scored = 0;
    for (auto _ : state) {
        for (const auto &transform : transforms) {
            auto score = model.score(transform);
            benchmark::DoNotOptimize(score);
        }
        scored += std::int64_t(transforms.size());
    }
    state.SetItemsProcessed(scored);
}
BENCHMARK(BM_AnalyticScoreOnly)->Unit(benchmark::kMillisecond);

// The pull-style scan alone, never materializing the transform vector:
// the enumeration cost the analytic tier actually pays.
void
BM_EnumerateStreamOnly(benchmark::State &state)
{
    auto spec = stellar::func::matmulSpec();
    stellar::dataflow::EnumerateOptions options;
    std::int64_t yielded = 0;
    for (auto _ : state) {
        std::size_t count = 0;
        stellar::dataflow::forEachTransform(
                spec, options,
                [&](const stellar::dataflow::EnumeratedTransform &) {
                    count++;
                    return true;
                });
        benchmark::DoNotOptimize(count);
        yielded += std::int64_t(count);
    }
    state.SetItemsProcessed(yielded);
}
BENCHMARK(BM_EnumerateStreamOnly)->Unit(benchmark::kMillisecond);

} // namespace

STELLAR_BENCH_MAIN(report)
