#include "sim/systolic.hpp"

#include <algorithm>
#include <string>

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

SystolicResult
simulateSystolicMatmul(const SystolicConfig &config, std::int64_t m,
                       std::int64_t n, std::int64_t k)
{
    require(m > 0 && n > 0 && k > 0, "matmul dims must be positive");
    SystolicResult result;
    result.macs = m * n * k;

    auto ceil_div = [](std::int64_t a, std::int64_t b) {
        return (a + b - 1) / b;
    };
    std::int64_t tiles_k = ceil_div(k, config.rows);
    std::int64_t tiles_n = ceil_div(n, config.cols);
    std::int64_t tiles_m = ceil_div(m, 512); // output-row strip mining

    // Weight-stationary schedule: for each (k, n) weight tile, stream the
    // A rows through. The handwritten design double-buffers weights so the
    // preload is hidden; both designs pay the array fill/drain skew once
    // per tile wave.
    std::int64_t per_tile_overhead =
            config.stellarGenerated ? config.stellarTileOverhead
                                    : config.handwrittenTileOverhead;
    std::int64_t compute = 0;
    {
        // Scoped so its unspent batch is refunded before the stream
        // below charges (see simulateOuterSpace).
        util::WatchdogBatcher dog; // one step per weight tile, batched
        for (std::int64_t tk = 0; tk < tiles_k; tk++) {
            for (std::int64_t tn = 0; tn < tiles_n; tn++) {
                if (util::fault::armed())
                    util::fault::checkpoint("sim.systolic.tile");
                dog.step([&]() {
                    return "systolic tile (" + std::to_string(tk) + ", " +
                           std::to_string(tn) + ") of " +
                           std::to_string(tiles_k) + "x" +
                           std::to_string(tiles_n);
                });
                std::int64_t rows_streamed = m;
                std::int64_t fill_drain = config.rows + config.cols;
                std::int64_t preload =
                        config.stellarGenerated ? config.rows / 2 : 0;
                compute += rows_streamed + fill_drain + preload +
                           per_tile_overhead * tiles_m;
            }
        }
    }
    result.computeCycles = compute;

    // Memory side: partial sums accumulate in the on-chip accumulator,
    // so C is written once; A is re-streamed per group of N tiles that
    // fit the accumulator (strip-mined); B is streamed once.
    std::int64_t a_restreams = std::min<std::int64_t>(tiles_n, 4);
    std::int64_t a_bytes = m * k * 1 * a_restreams;
    std::int64_t b_bytes = k * n * 1;
    std::int64_t c_bytes = m * n * 4;
    DramModel dram(config.dram);
    auto traffic = simulateStream(config.dma, dram,
                                  a_bytes + b_bytes + c_bytes);
    result.memoryCycles = traffic.cycles;
    result.dramBytes = traffic.bytes;

    // Compute and memory overlap through double buffering; the longer
    // side dominates, with a small serialization tail.
    result.cycles = std::max(result.computeCycles, result.memoryCycles) +
                    std::min(result.computeCycles, result.memoryCycles) / 16;

    double peak = double(config.rows) * double(config.cols);
    result.utilization =
            double(result.macs) / (double(result.cycles) * peak);

    result.spadReadBytes = a_bytes + b_bytes + c_bytes / 2;
    result.spadWriteBytes = a_bytes + b_bytes + c_bytes / 2;
    result.regfileBytes =
            (config.stellarGenerated ? 4 : 1) * (a_bytes + b_bytes);
    return result;
}

SystolicResult
simulateStructuredSparseMatmul(const SystolicConfig &config, std::int64_t m,
                               std::int64_t n, std::int64_t k, int keep_n,
                               int group_m)
{
    require(group_m > 0 && keep_n > 0 && keep_n <= group_m,
            "invalid N:M parameters");
    require(k % group_m == 0, "k must be a multiple of M");
    // The compressed reduction walks only the kept weights.
    std::int64_t k_compressed = k * keep_n / group_m;
    auto result = simulateSystolicMatmul(config, m, n, k_compressed);
    // Useful MACs are counted against the kept weights only, but the
    // selector muxes settle once per weight group per tile wave.
    std::int64_t groups = k / group_m;
    result.cycles += groups; // one settling bubble per group
    // B traffic is NOT compressed: the bundles carry all group_m
    // candidate operands (Fig 5).
    result.dramBytes += k * n - k_compressed * n;
    double peak = double(config.rows) * double(config.cols);
    result.utilization = double(result.macs) /
                         (double(result.cycles) * peak);
    return result;
}

} // namespace stellar::sim
