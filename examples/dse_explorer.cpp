/**
 * @file
 * Automated design-space exploration: enumerate every distinct causal
 * dataflow for the matmul specification (entries in [-1, 1]), generate
 * each accelerator, and rank them by delay-area product. The well-known
 * hand-designed dataflows (Fig 2) fall out of the enumeration rather
 * than being special cases.
 *
 * usage: dse_explorer [--threads N] [--topk K] [--step-budget B]
 *                     [--time-budget MS] [--max-pes P]
 *                     [--analytic-top-k K] [--max-hop H]
 *   --threads N      evaluation workers (0 = hardware concurrency);
 *                    rankings are identical for every thread count
 *   --step-budget B  per-candidate watchdog step budget (0 = unlimited);
 *                    candidates that exceed it are recorded as timeout
 *                    failures and rank nowhere
 *   --time-budget MS per-candidate wall-clock deadline in milliseconds
 *                    (0 = none); expiry is recorded as a wall-clock
 *                    timeout failure
 *   --max-pes P      drop candidates over P PEs before elaboration;
 *                    the analytic count is exact, so the prune is
 *                    lossless (0 = keep everything)
 *   --analytic-top-k K  three-tier mode: closed-form score every
 *                    candidate (no elaboration), full-elaborate only
 *                    the best K — the exact same final ranking at a
 *                    fraction of the cost (0 = disabled)
 *   --max-hop H      admit wires up to H PEs per hop (default 2); 3
 *                    opens the hop-3 spaces the analytic tier makes
 *                    affordable
 *   --retry-wall-clock  re-run a candidate whose wall-clock deadline
 *                    expired exactly once (transient slowness recovers;
 *                    deterministic step-budget timeouts never retry)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "accel/dse.hpp"
#include "accel/report.hpp"
#include "func/library.hpp"
#include "util/strings.hpp"

using namespace stellar;

int
main(int argc, char **argv)
{
    accel::DseOptions options;
    options.topK = 12;
    options.enumerate.maxHopLength = 2;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            options.threads = std::size_t(std::max(0, std::atoi(argv[++i])));
        else if (std::strcmp(argv[i], "--topk") == 0 && i + 1 < argc)
            options.topK = std::size_t(std::max(1, std::atoi(argv[++i])));
        else if (std::strcmp(argv[i], "--step-budget") == 0 && i + 1 < argc)
            options.stepBudget =
                    std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--time-budget") == 0 && i + 1 < argc)
            options.timeBudgetMillis =
                    std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--max-pes") == 0 && i + 1 < argc)
            options.maxPes =
                    std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--analytic-top-k") == 0 &&
                 i + 1 < argc)
            options.analyticTopK =
                    std::size_t(std::max(0, std::atoi(argv[++i])));
        else if (std::strcmp(argv[i], "--max-hop") == 0 && i + 1 < argc)
            options.enumerate.maxHopLength =
                    std::max<std::int64_t>(1, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--retry-wall-clock") == 0)
            options.retryWallClockTimeout = true;
        else {
            std::printf("usage: dse_explorer [--threads N] [--topk K] "
                        "[--step-budget B] [--time-budget MS] "
                        "[--max-pes P] "
                        "[--analytic-top-k K] [--max-hop H] "
                        "[--retry-wall-clock]\n");
            return 1;
        }
    }

    model::AreaParams area_params;
    model::TimingParams timing_params;

    auto spec = func::matmulSpec();
    accel::DseStats stats;
    auto candidates = accel::exploreDataflows(spec, {8, 8, 8}, options,
                                              area_params, timing_params,
                                              &stats);

    std::printf("explored matmul dataflows with coefficients in [-1, 1]; "
                "top %zu by delay-area:\n\n", candidates.size());
    std::printf("%s %s %s %s %s %s %s\n", padRight("rank", 5).c_str(),
                padRight("PEs", 6).c_str(), padRight("wires", 7).c_str(),
                padRight("steps", 6).c_str(), padRight("Fmax", 9).c_str(),
                padRight("area", 9).c_str(),
                padRight("transform (rows)", 30).c_str());
    int rank = 1;
    for (const auto &candidate : candidates) {
        std::string rows;
        const auto &m = candidate.transform.matrix();
        for (int r = 0; r < m.rows(); r++)
            rows += vecToString(m.row(r)) + (r + 1 < m.rows() ? " " : "");
        std::printf("%s %s %s %s %s %s %s\n",
                    padRight(std::to_string(rank++), 5).c_str(),
                    padRight(std::to_string(candidate.pes), 6).c_str(),
                    padRight(std::to_string(candidate.wires), 7).c_str(),
                    padRight(std::to_string(candidate.scheduleLength), 6)
                            .c_str(),
                    padRight(formatDouble(candidate.fmaxMhz, 0) + "MHz", 9)
                            .c_str(),
                    padRight(formatDouble(candidate.areaUm2 / 1e3, 0) + "K",
                             9)
                            .c_str(),
                    rows.c_str());
    }
    std::printf("\n%s", accel::dseStatsReport(stats).c_str());
    std::printf("\nEvery candidate passed invertibility and causality "
                "checks and went through\nthe full generation pipeline; "
                "classic input-/output-stationary arrays appear\namong "
                "the leaders automatically.\n");
    return candidates.empty() ? 1 : 0;
}
