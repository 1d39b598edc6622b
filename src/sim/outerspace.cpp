#include "sim/outerspace.hpp"

#include <algorithm>
#include <string>

#include "sim/balance.hpp"

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

double
OuterSpaceResult::gflops(double freq_ghz) const
{
    if (cycles == 0)
        return 0.0;
    double seconds = double(cycles) / (freq_ghz * 1e9);
    return 2.0 * double(multiplies) / seconds / 1e9;
}

OuterSpaceResult
simulateOuterSpace(const OuterSpaceConfig &config,
                   const sparse::CsrMatrix &a)
{
    require(config.workGroups >= 1,
            "OuterSpaceConfig::workGroups must be at least 1");
    require(config.mergeLanes >= 1,
            "OuterSpaceConfig::mergeLanes must be at least 1");
    // C = A * A: the column loop below counts A's multiplies as
    // sum_k colNnz(k) * rowNnz(k), the same integer spgemmMultiplies
    // counts row by row.
    require(a.rows() == a.cols(), "SpGEMM shape mismatch");
    OuterSpaceResult result;

    // Column nonzero counts of A (the CSC view used by the outer product).
    std::vector<std::int64_t> col_nnz(std::size_t(a.cols()), 0);
    for (auto c : a.colIdx())
        col_nnz[std::size_t(c)]++;

    // Every nonzero A(i, k) produces one partial-sum fiber of length
    // rowNnz(k), stored as a scattered vector reached through a pointer:
    // column k scatters one run of colNnz(k) equal chunks.
    const std::int64_t elem_bytes = 12; // 8B value + 4B coordinate
    std::vector<TransferRun> scatter;
    std::int64_t fibers = 0;
    for (std::int64_t k = 0; k < a.cols(); k++) {
        const std::int64_t fiber_len = a.rowNnz(k);
        const std::int64_t count = col_nnz[std::size_t(k)];
        if (fiber_len == 0 || count == 0)
            continue;
        scatter.push_back(
                TransferRun{TransferChunk{fiber_len * elem_bytes, true},
                            count});
        fibers += count;
    }

    // ---- Multiply phase ----
    DramModel multiply_dram(config.dram);
    // Stream A in twice (CSC for the left operand, CSR for the right).
    std::int64_t a_bytes = a.nnz() * 12 + (a.rows() + 1) * 8;
    auto a_read = simulateStream(config.dma, multiply_dram, 2 * a_bytes);
    // Scatter the partial vectors out (pointer-chased writes).
    auto scatter_out =
            simulateTransfer(config.dma, multiply_dram, scatter,
                             a_read.cycles);
    std::int64_t multiply_mem = a_read.cycles + scatter_out.cycles;
    // Compute side: columns of A are outer-product work items distributed
    // across the PE groups; imbalanced columns strand groups unless the
    // Listing 3-style balancer shifts work between waves (Fig 6).
    std::vector<std::int64_t> column_work;
    const int per_group = config.multipliers / config.workGroups;
    {
        // A batcher holds pre-charged steps until it is destroyed, so it
        // must end before the streams below charge, or they would expire
        // early by its unspent batch.
        util::WatchdogBatcher dog; // one step per outer-product column
        for (std::int64_t k = 0; k < a.cols(); k++) {
            if (util::fault::armed())
                util::fault::checkpoint("sim.outerspace.column");
            dog.step([&]() {
                return "outerspace column " + std::to_string(k) + "/" +
                       std::to_string(a.cols()) + ", " +
                       std::to_string(fibers) + " scattered fibers queued";
            });
            const std::int64_t products =
                    col_nnz[std::size_t(k)] * a.rowNnz(k);
            result.multiplies += products;
            if (products > 0)
                column_work.push_back((products + per_group - 1) /
                                      std::max(per_group, 1));
        }
    }
    auto balance = simulateRowWaves(column_work, config.workGroups,
                                    config.loadBalanced);
    std::int64_t multiply_compute = balance.cycles;
    result.balancerShifts = balance.shiftsApplied;
    result.multiplyUtilization = balance.utilization;
    result.multiplyPhaseCycles = std::max(multiply_mem, multiply_compute);
    result.pointerRequests += fibers;
    result.pointerStallCycles += scatter_out.pointerStallCycles;
    result.dramBytes += multiply_dram.bytesTransferred();

    // ---- Merge phase ----
    // Gather the scattered partial vectors back (pointer-chased reads).
    // The gather is the scatter's chunks on an idle DRAM, and the
    // scatter ran on an idle DRAM too: it starts at the A stream's
    // `cycles`, which is at or after every completion the stream issued
    // (latency >= 0 puts the bandwidth cursor at or before the last
    // completion), so nothing is in flight and nothing holds bandwidth
    // from then on. The transfer loop only compares cycles with each
    // other, so starting it later shifts every cycle it visits by the
    // same amount and leaves its TransferResult as it is. The gather's
    // result is therefore the scatter's; its bytes are counted here,
    // since merge_dram never sees them. The same argument lets the
    // write-out run on a fresh DRAM from `gather.cycles`.
    const TransferResult &gather = scatter_out;
    DramModel merge_dram(config.dram);
    // Write the final merged matrix out as a stream. Use the partial
    // element count as an upper bound on the result size.
    auto write_out = simulateStream(config.dma, merge_dram,
                                    result.multiplies * elem_bytes,
                                    gather.cycles);
    std::int64_t merge_mem = gather.cycles + write_out.cycles;
    // Merge lanes consume one element per lane per cycle; imbalanced
    // fibers leave some lanes idle (~20% on the matrices studied).
    std::int64_t merge_compute = std::int64_t(
            1.2 * double(result.multiplies) / double(config.mergeLanes));
    result.mergePhaseCycles = std::max(merge_mem, merge_compute);
    result.pointerRequests += fibers;
    result.pointerStallCycles += gather.pointerStallCycles;
    result.dramBytes += gather.bytes + merge_dram.bytesTransferred();

    result.cycles = result.multiplyPhaseCycles + result.mergePhaseCycles;
    return result;
}

} // namespace stellar::sim
