/**
 * @file
 * Physics bounds the DRAM/DMA model and OuterSPACE must meet on any
 * input, whatever way they compute their results. A transfer moves
 * exactly the bytes it was asked to, in one request per burst or chunk
 * plus one per pointer load, and cannot finish before its bandwidth
 * occupancy plus one access latency. OuterSPACE multiplies every
 * nonzero of A with the row it selects, moves A twice, every partial
 * fiber out and back with its pointer and the product once, and its
 * multiply phase cannot beat its multiplier count. The checks run on
 * the 18-matrix OuterSPACE suite at two scales, over the streams and
 * scatters the suite issues, at three DMA rates and four DRAMs.
 *
 * The mergers are held to a count they do not share: the structural
 * nonzeros of A * A, the distinct (i, j) some A(i, k) A(k, j) reaches.
 * A one-group merge tree merges exactly those (SpGEMM's own result
 * drops cancelled zeros, so its nnz is only a lower bound), a pairwise
 * schedule at least those, and no merger emits more elements per cycle
 * than its throughput or lanes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/dram.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/suitesparse.hpp"
#include "testkit/oracles.hpp"
#include "util/rng.hpp"

namespace stellar::sim
{
namespace
{

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Cycles of DRAM bandwidth one request of `bytes` occupies. */
std::int64_t
occupancy(const DramConfig &config, std::int64_t bytes)
{
    return ceilDiv(std::max(bytes, config.minBurstBytes),
                   config.bytesPerCycle);
}

/** Fewest cycles a stream of `bytes` can take: every burst's occupancy,
 *  then the last one's latency. */
std::int64_t
streamFloor(const DramConfig &config, std::int64_t bytes)
{
    if (bytes == 0)
        return 0;
    const std::int64_t burst = config.minBurstBytes;
    return ceilDiv(bytes, burst) * occupancy(config, burst) +
           config.latency;
}

void
expectStreamBounds(const DmaConfig &dma, const DramConfig &config,
                   std::int64_t bytes, std::int64_t start)
{
    SCOPED_TRACE("stream of " + std::to_string(bytes) + " bytes");
    DramModel dram(config);
    const auto result = simulateStream(dma, dram, bytes, start);
    EXPECT_EQ(result.bytes, bytes);
    EXPECT_EQ(dram.bytesTransferred(), bytes);
    EXPECT_EQ(result.requests, ceilDiv(bytes, config.minBurstBytes));
    EXPECT_EQ(result.pointerStallCycles, 0);
    EXPECT_GE(result.cycles, streamFloor(config, bytes));
}

/**
 * A fresh DRAM serves the requests one bandwidth window after another,
 * and the last request issued is a data request (each pointer load
 * precedes its own), so its completion bounds the transfer.
 */
void
expectTransferBounds(const DmaConfig &dma, const DramConfig &config,
                     const std::vector<TransferRun> &runs)
{
    SCOPED_TRACE("scatter");
    DramModel dram(config);
    const auto result = simulateTransfer(dma, dram, runs);
    std::int64_t bytes = 0, requests = 0, busy = 0;
    for (const auto &run : runs) {
        const std::int64_t pointers = run.chunk.pointerChased ? 1 : 0;
        bytes += run.count * (run.chunk.bytes + 8 * pointers);
        requests += run.count * (1 + pointers);
        busy += run.count * (occupancy(config, run.chunk.bytes) +
                             pointers * occupancy(config, 8));
    }
    EXPECT_EQ(result.bytes, bytes);
    EXPECT_EQ(dram.bytesTransferred(), bytes);
    EXPECT_EQ(result.requests, requests);
    if (requests > 0) {
        EXPECT_GE(result.cycles, busy + config.latency);
    }
}

/** What C = A * A must cost at least, counted from A alone. */
void
expectOuterSpaceBounds(const OuterSpaceConfig &config,
                       const sparse::CsrMatrix &a)
{
    // Each nonzero A(i, k) multiplies row k of A and scatters the
    // partial fiber of that length, unless the row is empty.
    std::int64_t multiplies = 0, fibers = 0, fiber_bytes = 0;
    std::vector<std::int64_t> col_nnz(std::size_t(a.cols()), 0);
    for (std::int64_t i = 0; i < a.rows(); i++) {
        for (auto p = a.rowPtr()[std::size_t(i)];
                p < a.rowPtr()[std::size_t(i + 1)]; p++) {
            const std::int64_t k = a.colIdx()[std::size_t(p)];
            const std::int64_t len = a.rowNnz(k);
            col_nnz[std::size_t(k)]++;
            multiplies += len;
            if (len > 0) {
                fibers++;
                fiber_bytes += 8 + 12 * len;
            }
        }
    }
    const std::int64_t a_bytes = a.nnz() * 12 + (a.rows() + 1) * 8;

    const auto result = simulateOuterSpace(config, a);
    EXPECT_EQ(result.multiplies, multiplies);
    EXPECT_EQ(result.dramBytes,
              2 * a_bytes + 2 * fiber_bytes + 12 * multiplies);
    EXPECT_EQ(result.pointerRequests, 2 * fibers);
    EXPECT_GE(result.multiplyPhaseCycles * config.multipliers, multiplies);
    EXPECT_GE(result.multiplyPhaseCycles,
              streamFloor(config.dram, 2 * a_bytes));
    EXPECT_GE(result.mergePhaseCycles, multiplies / config.mergeLanes);
    EXPECT_GE(result.mergePhaseCycles,
              streamFloor(config.dram, 12 * multiplies));
    EXPECT_EQ(result.cycles,
              result.multiplyPhaseCycles + result.mergePhaseCycles);

    // The same traffic, transfer by transfer.
    expectStreamBounds(config.dma, config.dram, 2 * a_bytes, 0);
    expectStreamBounds(config.dma, config.dram, 12 * multiplies, 777);
    std::vector<TransferRun> scatter;
    for (std::int64_t k = 0; k < a.cols(); k++) {
        if (a.rowNnz(k) > 0)
            scatter.push_back(TransferRun{
                    TransferChunk{12 * a.rowNnz(k), true},
                    col_nnz[std::size_t(k)]});
    }
    expectTransferBounds(config.dma, config.dram, scatter);
}

void
expectSuiteBounds(std::int64_t nnz)
{
    Rng rng{std::uint64_t(nnz)};
    std::vector<DramConfig> drams(4, OuterSpaceConfig().dram);
    drams[1].latency = 0;
    drams[1].bytesPerCycle = 8;
    drams[1].maxOutstanding = 1;
    drams[1].minBurstBytes = 32;
    drams[2].latency = 400;
    drams[2].bytesPerCycle = 128;
    drams[2].maxOutstanding = 256;
    drams[2].minBurstBytes = 128;
    int runs = 0;
    for (const auto &profile : sparse::outerSpaceSuite()) {
        const auto matrix =
                sparse::synthesize(sparse::scaleProfile(profile, nnz), 1);
        // One DRAM drawn per matrix, over every field's range.
        drams[3].latency = rng.nextRange(0, 200);
        drams[3].bytesPerCycle = rng.nextRange(1, 64);
        drams[3].maxOutstanding = rng.nextRange(1, 96);
        drams[3].minBurstBytes = rng.nextRange(1, 128);
        for (int rate : {1, 4, 16}) {
            for (std::size_t d = 0; d < drams.size(); d++) {
                SCOPED_TRACE(profile.name + " at " + std::to_string(nnz) +
                             " nnz, rate " + std::to_string(rate) +
                             ", dram " + std::to_string(d));
                OuterSpaceConfig config;
                config.dma = DmaConfig::withRate(rate);
                config.dram = drams[d];
                expectOuterSpaceBounds(config, matrix);
                runs++;
            }
        }
    }
    EXPECT_EQ(runs, 18 * 3 * 4);
}

TEST(SimBounds, OuterSpaceSuiteAt1500Nnz)
{
    expectSuiteBounds(1500);
}

TEST(SimBounds, OuterSpaceSuiteAt6000Nnz)
{
    expectSuiteBounds(6000);
}

TEST(SimBounds, MergersOnSuiteAt1500Nnz)
{
    std::vector<MergerConfig> configs(3);
    configs[1].lanes = 1;
    configs[1].throughput = 1;
    configs[2].lanes = 5;
    configs[2].throughput = 7;
    configs[2].laneStartup = 0;
    for (const auto &profile : sparse::outerSpaceSuite()) {
        const auto a =
                sparse::synthesize(sparse::scaleProfile(profile, 1500), 1);
        const auto partials =
                sparse::outerProductPartials(sparse::csrToCsc(a), a);
        ASSERT_GE(partials.size(), 2u) << profile.name;
        const std::int64_t nnz = testkit::structuralProductNnz(a);
        EXPECT_GE(nnz, sparse::spgemmGustavson(a, a).nnz()) << profile.name;
        for (std::size_t c = 0; c < configs.size(); c++) {
            SCOPED_TRACE(profile.name + ", config " + std::to_string(c));
            const MergerConfig &config = configs[c];
            const auto tree = runHierarchicalMerge(config, partials,
                                                   int(partials.size()));
            EXPECT_EQ(tree.mergedElements, nnz);
            const auto row = runMergeSchedule(
                    config, MergerKind::RowPartitioned, partials);
            const auto flat =
                    runMergeSchedule(config, MergerKind::Flattened, partials);
            EXPECT_GE(row.mergedElements, nnz);
            EXPECT_EQ(flat.mergedElements, row.mergedElements);
            EXPECT_GE(flat.cycles * config.throughput, flat.mergedElements);
            EXPECT_GE(row.cycles * config.lanes, row.mergedElements);
        }
    }
}

TEST(SimBounds, StreamsOnRandomDrams)
{
    // Stream lengths around the burst size and far beyond it, where
    // the stream replays whole periods.
    Rng rng(6);
    for (int trial = 0; trial < 200; trial++) {
        DramConfig config;
        config.latency = rng.nextRange(0, 200);
        config.bytesPerCycle = rng.nextRange(1, 64);
        config.maxOutstanding = rng.nextRange(1, 96);
        config.minBurstBytes = rng.nextRange(1, 128);
        const auto dma = DmaConfig::withRate(int(rng.nextRange(1, 16)));
        const std::int64_t bytes = rng.nextBool(0.3)
                                           ? rng.nextRange(0, 3 * 128)
                                           : rng.nextRange(0, 1 << 20);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectStreamBounds(dma, config, bytes, rng.nextRange(0, 1000));
    }
}

} // namespace
} // namespace stellar::sim
