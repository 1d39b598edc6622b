/**
 * @file
 * Tests for the cycle-level simulators: DRAM/DMA (pointer-chasing
 * bottleneck of Section VI-C), the systolic Gemmini-like model, the
 * SCNN model, the OuterSPACE model, the mergers of Section VI-D, and
 * the load balancer of Fig 6.
 */

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "sim/balance.hpp"
#include "sim/dram.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sim/scnn.hpp"
#include "sim/scratchpad.hpp"
#include "sim/systolic.hpp"
#include "sparse/suitesparse.hpp"
#include "testkit/oracles.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"

namespace stellar::sim
{
namespace
{

TEST(DramModel, LatencyAndBandwidth)
{
    DramConfig config;
    config.latency = 10;
    config.bytesPerCycle = 16;
    config.minBurstBytes = 64;
    DramModel dram(config);
    // A 64-byte burst occupies 4 bandwidth cycles then waits the latency.
    EXPECT_EQ(dram.issue(0, 64), 14);
    // The next request queues behind the first's bandwidth occupancy.
    EXPECT_EQ(dram.issue(0, 64), 18);
    EXPECT_EQ(dram.bytesTransferred(), 128);
}

TEST(DramModel, ShortRequestsStillBurnABurst)
{
    DramConfig config;
    config.latency = 5;
    config.bytesPerCycle = 32;
    config.minBurstBytes = 64;
    DramModel dram(config);
    EXPECT_EQ(dram.issue(0, 8), 2 + 5); // charged a full 64B burst
}

TEST(DramModel, OutstandingCap)
{
    DramConfig config;
    config.maxOutstanding = 2;
    DramModel dram(config);
    dram.issue(0, 64);
    dram.issue(0, 64);
    EXPECT_FALSE(dram.canAccept(0));
    EXPECT_TRUE(dram.canAccept(10000));
}

TEST(DramModel, IssuingPastTheCapGrowsTheInFlightRing)
{
    // The in-flight ring is sized at the cap. A caller that issues past
    // it, with the ring's head partway round, still sees every
    // completion, in order.
    DramConfig config;
    config.latency = 10;
    config.bytesPerCycle = 64;
    config.maxOutstanding = 3;
    DramModel dram(config);
    std::vector<std::int64_t> done;
    for (int i = 0; i < 3; i++)
        done.push_back(dram.issue(0, 64));
    EXPECT_EQ(dram.outstanding(done[1]), 1);
    for (int i = 0; i < 9; i++)
        done.push_back(dram.issue(done[1], 64));
    EXPECT_EQ(dram.outstanding(done[1]), 10);
    for (std::size_t i = 2; i < done.size(); i++)
        EXPECT_EQ(dram.outstanding(done[i]),
                  std::int64_t(done.size() - i - 1));
}

TEST(DramModel, CompletionsStrictlyIncrease)
{
    // The in-flight FIFO depends on completions arriving in issue order.
    // A bandwidth below one byte per cycle would break that (zero also
    // divides by zero), so the constructor refuses it, naming the field.
    for (std::int64_t bandwidth : {0, -1}) {
        DramConfig config;
        config.bytesPerCycle = bandwidth;
        try {
            DramModel dram(config);
            ADD_FAILURE() << "bandwidth " << bandwidth << " accepted";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what())
                              .find("DramConfig::bytesPerCycle"),
                      std::string::npos)
                    << error.what();
        }
    }
}

TEST(DramModel, CompletionsStrictlyIncreaseOverValidConfigs)
{
    // Any config the constructor accepts issues in completion order,
    // whatever the request sizes and issue cycles.
    Rng rng(21);
    for (int round = 0; round < 200; round++) {
        DramConfig config;
        config.latency = rng.nextRange(0, 200);
        config.bytesPerCycle = rng.nextRange(1, 128);
        config.maxOutstanding = rng.nextRange(1, 64);
        config.minBurstBytes = rng.nextRange(0, 128);
        DramModel dram(config);
        std::int64_t now = 0;
        std::int64_t last = -1;
        for (int i = 0; i < 100; i++) {
            now += rng.nextRange(0, 4);
            std::int64_t done = dram.issue(now, rng.nextRange(1, 300));
            ASSERT_GT(done, last) << "round " << round << " issue " << i;
            ASSERT_GE(done, now + config.latency + 1);
            last = done;
        }
    }
}

TEST(SimulateStream, BandwidthBound)
{
    DramConfig config;
    config.latency = 100;
    config.bytesPerCycle = 32;
    DramModel dram(config);
    DmaConfig dma;
    dma.reqsPerCycle = 16;
    auto result = simulateStream(dma, dram, 32 * 10000);
    // 10000 cycles of bandwidth plus one latency, within slack.
    EXPECT_NEAR(double(result.cycles), 10000.0 + 100.0, 300.0);
}

TEST(SimulateTransfer, PointerChasingIsRequestRateBound)
{
    // Many short pointer-chased vectors: with one new request per cycle,
    // runtime is about two cycles per vector (pointer + data); with 16,
    // the DMA keeps DRAM bandwidth busy instead.
    std::vector<TransferChunk> chunks;
    for (int i = 0; i < 2000; i++)
        chunks.push_back(TransferChunk{24, /*pointerChased=*/true});

    DramConfig dram_config;
    dram_config.latency = 100;
    dram_config.bytesPerCycle = 32;
    dram_config.maxOutstanding = 256;

    DmaConfig slow = DmaConfig::withRate(1);
    DramModel dram1(dram_config);
    auto r1 = simulateTransfer(slow, dram1, chunks);

    DmaConfig fast = DmaConfig::withRate(16);
    DramModel dram16(dram_config);
    auto r16 = simulateTransfer(fast, dram16, chunks);

    EXPECT_GT(double(r1.cycles), 1.3 * double(r16.cycles));
    EXPECT_EQ(r1.requests, 4000);
    EXPECT_EQ(r16.requests, 4000);
    EXPECT_EQ(r1.bytes, r16.bytes);
}

TEST(SimulateTransfer, ContiguousChunksDontPayPointerPenalty)
{
    std::vector<TransferChunk> contiguous(
            2000, TransferChunk{24, /*pointerChased=*/false});
    std::vector<TransferChunk> chased(
            2000, TransferChunk{24, /*pointerChased=*/true});
    DramConfig config;
    DmaConfig dma;
    dma.reqsPerCycle = 1;
    DramModel d1(config), d2(config);
    auto direct = simulateTransfer(dma, d1, contiguous);
    auto pointer = simulateTransfer(dma, d2, chased);
    EXPECT_GT(pointer.cycles, direct.cycles);
    EXPECT_EQ(direct.pointerStallCycles, 0);
}

TEST(Systolic, FullUtilizationOnLargeSquareMatmul)
{
    SystolicConfig config;
    auto result = simulateSystolicMatmul(config, 1024, 1024, 1024);
    EXPECT_GT(result.utilization, 0.7);
    EXPECT_EQ(result.macs, std::int64_t(1024) * 1024 * 1024);
}

TEST(Systolic, StellarVariantIsSlightlySlower)
{
    SystolicConfig handwritten;
    SystolicConfig stellar;
    stellar.stellarGenerated = true;
    double hand_total = 0.0, stellar_total = 0.0;
    // A few representative layer shapes.
    const std::int64_t shapes[][3] = {
        {3136, 64, 576}, {784, 128, 1152}, {196, 256, 2304}, {49, 512, 4608}};
    for (const auto &shape : shapes) {
        hand_total += double(simulateSystolicMatmul(handwritten, shape[0],
                                                    shape[1], shape[2])
                                     .cycles);
        stellar_total += double(simulateSystolicMatmul(stellar, shape[0],
                                                       shape[1], shape[2])
                                        .cycles);
    }
    double relative = hand_total / stellar_total;
    // Section VI-B: the Stellar-generated Gemmini reaches ~90% of the
    // handwritten design's utilization.
    EXPECT_GT(relative, 0.80);
    EXPECT_LT(relative, 0.99);
}

TEST(Systolic, SmallMatmulHasLowUtilization)
{
    SystolicConfig config;
    auto small = simulateSystolicMatmul(config, 8, 8, 8);
    auto large = simulateSystolicMatmul(config, 512, 512, 512);
    EXPECT_LT(small.utilization, large.utilization);
}

TEST(Scnn, DenserLayersDoMoreWork)
{
    ScnnConfig config;
    ScnnLayer dense{"dense", 64, 64, 3, 28, 1.0, 1.0};
    ScnnLayer sparse = dense;
    sparse.weightDensity = 0.4;
    sparse.activationDensity = 0.4;
    auto dense_result = simulateScnnLayer(config, dense, 1);
    auto sparse_result = simulateScnnLayer(config, sparse, 1);
    EXPECT_GT(dense_result.multiplies, sparse_result.multiplies * 4);
    EXPECT_GT(dense_result.cycles, sparse_result.cycles);
}

TEST(Scnn, StellarVariantReaches83To94Percent)
{
    ScnnConfig handwritten;
    ScnnConfig stellar;
    stellar.stellarGenerated = true;
    ScnnLayer layer{"conv3", 256, 384, 3, 13, 0.35, 0.39};
    auto hand = simulateScnnLayer(handwritten, layer, 3);
    auto gen = simulateScnnLayer(stellar, layer, 3);
    double relative = gen.utilization / hand.utilization;
    EXPECT_GT(relative, 0.75);
    EXPECT_LT(relative, 1.0);
}

TEST(OuterSpace, FasterDmaImprovesThroughput)
{
    auto profile = sparse::scaleProfile(
            sparse::profileByName("poisson3Da"), 40000);
    auto matrix = sparse::synthesize(profile, 9);

    OuterSpaceConfig slow;
    slow.dma = DmaConfig::withRate(1);
    auto r1 = simulateOuterSpace(slow, matrix);

    OuterSpaceConfig fast;
    fast.dma = DmaConfig::withRate(16);
    auto r16 = simulateOuterSpace(fast, matrix);

    EXPECT_GT(r16.gflops(1.5), r1.gflops(1.5));
    EXPECT_EQ(r1.multiplies, r16.multiplies);
    EXPECT_GT(r1.pointerRequests, 0);
}

TEST(OuterSpace, PointerTrafficIsSmallShareOfBytes)
{
    // Section VI-C: pointers are <10% of traffic yet dominate runtime.
    auto profile = sparse::scaleProfile(
            sparse::profileByName("poisson3Da"), 30000);
    auto matrix = sparse::synthesize(profile, 2);
    OuterSpaceConfig config;
    auto result = simulateOuterSpace(config, matrix);
    double pointer_bytes = double(result.pointerRequests) * 8.0;
    EXPECT_LT(pointer_bytes / double(result.dramBytes), 0.10);
}

TEST(Merger, FlattenedIsInsensitiveToImbalance)
{
    MergerConfig config;
    // One long fiber and many empty-ish ones.
    sparse::PartialMatrix a, b;
    a.rowIds = {0};
    a.rowFibers = {sparse::Fiber{{}, {}}};
    for (std::int64_t c = 0; c < 320; c++) {
        a.rowFibers[0].coords.push_back(2 * c);
        a.rowFibers[0].values.push_back(1.0);
    }
    for (std::int64_t r = 1; r < 32; r++) {
        a.rowIds.push_back(r);
        a.rowFibers.push_back(sparse::Fiber{{0}, {1.0}});
    }
    b = a;
    for (auto &fiber : b.rowFibers)
        for (auto &coord : fiber.coords)
            coord += 1;

    auto row = mergePairRowPartitioned(config, a, b);
    auto flat = mergePairFlattened(config, a, b);
    EXPECT_EQ(row.mergedElements, flat.mergedElements);
    // The flattened merger is immune to the single long row.
    EXPECT_GT(flat.elementsPerCycle(), 2.0 * row.elementsPerCycle());
}

TEST(Merger, RowPartitionedWinsOnBalancedRows)
{
    MergerConfig config; // 32 lanes vs throughput 16
    sparse::PartialMatrix a, b;
    for (std::int64_t r = 0; r < 32; r++) {
        sparse::Fiber fiber;
        for (std::int64_t c = 0; c < 64; c++) {
            fiber.coords.push_back(2 * c);
            fiber.values.push_back(1.0);
        }
        a.rowIds.push_back(r);
        a.rowFibers.push_back(fiber);
        for (auto &coord : fiber.coords)
            coord += 1;
        b.rowIds.push_back(r);
        b.rowFibers.push_back(fiber);
    }
    auto row = mergePairRowPartitioned(config, a, b);
    auto flat = mergePairFlattened(config, a, b);
    // Balanced long rows: 32 lanes beat a throughput-16 flattened merger
    // (the paper's poisson3Da / cop20k_A observation).
    EXPECT_GT(row.elementsPerCycle(), flat.elementsPerCycle());
}

TEST(Merger, PairMergeMatchesFiberMerge)
{
    sparse::PartialMatrix a, b;
    a.rowIds = {0, 2};
    a.rowFibers = {sparse::Fiber{{0, 4}, {1, 2}},
                   sparse::Fiber{{1}, {3}}};
    b.rowIds = {0, 1};
    b.rowFibers = {sparse::Fiber{{4, 5}, {10, 20}},
                   sparse::Fiber{{7}, {30}}};
    auto merged = testkit::mergePartialPair(a, b);
    ASSERT_EQ(merged.rowIds.size(), 3u);
    // Row 0 merged: coords {0,4,5}, values {1,12,20}.
    EXPECT_EQ(merged.rowFibers[0].coords,
              (std::vector<std::int64_t>{0, 4, 5}));
    EXPECT_EQ(merged.rowFibers[0].values, (std::vector<double>{1, 12, 20}));
}

TEST(Merger, RejectsUnsortedRowIds)
{
    // The merge walks rowIds in order, so a partial whose rows are out of
    // order or repeated is a classified input error naming the pair.
    sparse::PartialMatrix sorted, unsorted, repeated;
    sorted.rowIds = {1, 4};
    sorted.rowFibers = {sparse::Fiber{{0}, {1.0}}, sparse::Fiber{{2}, {1.0}}};
    unsorted.rowIds = {3, 2};
    unsorted.rowFibers = sorted.rowFibers;
    repeated.rowIds = {5, 5};
    repeated.rowFibers = sorted.rowFibers;
    EXPECT_THROW(testkit::mergePartialPair(sorted, unsorted), FatalError);
    EXPECT_THROW(testkit::mergePartialPair(repeated, sorted), FatalError);
    EXPECT_THROW(mergePairFlattened(MergerConfig(), unsorted, sorted),
                 FatalError);
    EXPECT_THROW(runHierarchicalMerge(MergerConfig(), {unsorted}, 4),
                 FatalError);
    try {
        runMergeSchedule(MergerConfig(), MergerKind::RowPartitioned,
                         {sorted, sorted, sorted, unsorted});
        FAIL() << "an unsorted partial merged";
    } catch (...) {
        auto failure = util::classifyException(std::current_exception());
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
        EXPECT_NE(failure.message.find("pair at 2"), std::string::npos)
                << failure.message;
        EXPECT_NE(failure.message.find("row 2 follows row 3"),
                  std::string::npos) << failure.message;
    }
}

TEST(Merger, ScheduleReducesToOne)
{
    Rng rng(5);
    std::vector<sparse::PartialMatrix> partials;
    for (int p = 0; p < 7; p++) {
        sparse::PartialMatrix partial;
        for (std::int64_t r = 0; r < 4; r++) {
            sparse::Fiber fiber;
            std::int64_t len = rng.nextRange(1, 6);
            for (std::int64_t c = 0; c < len; c++) {
                fiber.coords.push_back(c * 3 + rng.nextRange(0, 2));
                fiber.values.push_back(1.0);
            }
            std::sort(fiber.coords.begin(), fiber.coords.end());
            fiber.coords.erase(std::unique(fiber.coords.begin(),
                                           fiber.coords.end()),
                               fiber.coords.end());
            fiber.values.resize(fiber.coords.size(), 1.0);
            partial.rowIds.push_back(r);
            partial.rowFibers.push_back(std::move(fiber));
        }
        partials.push_back(std::move(partial));
    }
    MergerConfig config;
    auto result = runMergeSchedule(config, MergerKind::Flattened, partials);
    EXPECT_GT(result.cycles, 0);
    EXPECT_GT(result.mergedElements, 0);
}

TEST(Balance, BalancingImprovesImbalancedUtilization)
{
    // Fig 6: an imbalanced B matrix leaves rows idle without balancing.
    Rng rng(11);
    std::vector<std::int64_t> work;
    for (int i = 0; i < 256; i++)
        work.push_back(rng.nextBool(0.2) ? rng.nextRange(20, 60)
                                         : rng.nextRange(0, 4));
    auto unbalanced = simulateRowWaves(work, 16, false);
    auto balanced = simulateRowWaves(work, 16, true);
    EXPECT_GT(balanced.utilization, unbalanced.utilization);
    EXPECT_LT(balanced.cycles, unbalanced.cycles);
    EXPECT_GT(balanced.shiftsApplied, 0);
    EXPECT_EQ(balanced.work, unbalanced.work);
}

TEST(Balance, PerPeIsAtLeastAsGoodAsRowGranular)
{
    Rng rng(13);
    std::vector<std::int64_t> work;
    for (int i = 0; i < 100; i++)
        work.push_back(rng.nextRange(0, 50));
    auto row = simulateRowWaves(work, 8, true);
    auto per_pe = simulatePerPe(work, 8);
    EXPECT_LE(per_pe.cycles, row.cycles);
    EXPECT_GE(per_pe.utilization, row.utilization);
}

TEST(Balance, UniformWorkNeedsNoBalancing)
{
    std::vector<std::int64_t> work(64, 10);
    auto unbalanced = simulateRowWaves(work, 16, false);
    auto balanced = simulateRowWaves(work, 16, true);
    EXPECT_EQ(unbalanced.cycles, balanced.cycles);
    EXPECT_DOUBLE_EQ(unbalanced.utilization, 1.0);
}

TEST(Scratchpad, DensePipelineIsNearlyOneRequestPerCycle)
{
    mem::MemBufferSpec spec;
    spec.name = "dense";
    spec.format = mem::denseFormat(2);
    spec.banks = 4;
    ScratchpadConfig config;
    auto result = simulateScratchpadReads(spec, config, 10000, 1);
    EXPECT_EQ(result.metadataStalls, 0);
    EXPECT_GT(result.throughput(), 0.6);
}

TEST(Scratchpad, CompressedAxesPayMetadataStalls)
{
    mem::MemBufferSpec dense_spec;
    dense_spec.name = "d";
    dense_spec.format = mem::denseFormat(2);
    dense_spec.banks = 4;
    mem::MemBufferSpec csr_spec = dense_spec;
    csr_spec.name = "c";
    csr_spec.format = mem::csrFormat();
    ScratchpadConfig config;
    auto dense = simulateScratchpadReads(dense_spec, config, 5000, 2);
    auto csr = simulateScratchpadReads(csr_spec, config, 5000, 2);
    EXPECT_GT(csr.metadataStalls, 0);
    EXPECT_GT(csr.cycles, dense.cycles);
}

TEST(Scratchpad, MoreBanksFewerConflicts)
{
    mem::MemBufferSpec spec;
    spec.name = "b";
    spec.format = mem::denseFormat(2);
    ScratchpadConfig config;
    config.requestsPerCycle = 4;
    spec.banks = 1;
    auto one_bank = simulateScratchpadReads(spec, config, 5000, 3);
    spec.banks = 16;
    auto many_banks = simulateScratchpadReads(spec, config, 5000, 3);
    EXPECT_GT(one_bank.bankConflictStalls,
              many_banks.bankConflictStalls);
    EXPECT_GE(one_bank.cycles, many_banks.cycles);
}

TEST(Scratchpad, DeterministicPerSeed)
{
    mem::MemBufferSpec spec;
    spec.name = "s";
    spec.format = mem::csrFormat();
    spec.banks = 2;
    ScratchpadConfig config;
    auto a = simulateScratchpadReads(spec, config, 1000, 7);
    auto b = simulateScratchpadReads(spec, config, 1000, 7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.metadataStalls, b.metadataStalls);
}

TEST(Merger, HierarchicalLevelsDoNotOverflowNearIntMax)
{
    // ceil(log2(ways)) comparator levels, for every ways up to INT_MAX
    // (UBSan checks the arithmetic).
    std::vector<sparse::PartialMatrix> partials(
            3, sparse::PartialMatrix{{0}, {sparse::Fiber{{0, 1}, {1, 1}}}});
    MergerConfig config;
    config.throughput = 1;
    for (int ways : {INT_MAX, INT_MAX - 1, (1 << 30) + 1}) {
        auto result = runHierarchicalMerge(config, partials, ways);
        EXPECT_EQ(result.mergedElements, 2);
        EXPECT_EQ(result.cycles, 2 + 31) << ways;
    }
    EXPECT_EQ(runHierarchicalMerge(config, partials, 1 << 30).cycles, 2 + 30);
    EXPECT_EQ(runHierarchicalMerge(config, partials, 2).cycles,
              (2 + 1) + (2 + 1));
}

// Config fields that would hang or crash a simulator are rejected at
// entry with a FatalError naming the field.

/** Expect `fn` to throw a FatalError whose message names `field`. */
template <typename Fn>
void
expectRejects(const std::string &field, Fn fn)
{
    try {
        fn();
        ADD_FAILURE() << field << " was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
                << err.what();
    }
}

sparse::CsrMatrix
smallMatrix()
{
    return sparse::synthesize(
            sparse::scaleProfile(sparse::profileByName("wiki-Vote"), 500),
            1);
}

TEST(SimConfigValidation, DmaReqsPerCycleZero)
{
    DmaConfig dma;
    dma.reqsPerCycle = 0;
    DramModel dram((DramConfig()));
    expectRejects("DmaConfig::reqsPerCycle",
                  [&] { simulateStream(dma, dram, 4096); });
    expectRejects("DmaConfig::reqsPerCycle", [&] {
        simulateTransfer(dma, dram, {TransferChunk{64, false}});
    });
}

TEST(SimConfigValidation, DmaPointerContextsZeroWithPointerChasedChunk)
{
    DmaConfig dma;
    dma.pointerContexts = 0;
    DramModel dram((DramConfig()));
    expectRejects("DmaConfig::pointerContexts", [&] {
        simulateTransfer(dma, dram,
                         {TransferChunk{64, false}, TransferChunk{64, true}});
    });
    // No pointer-chased chunk needs a context.
    EXPECT_EQ(simulateTransfer(dma, dram, {TransferChunk{64, false}}).bytes,
              64);
}

TEST(SimConfigValidation, DramMaxOutstandingZero)
{
    DramConfig config;
    config.maxOutstanding = 0;
    expectRejects("DramConfig::maxOutstanding",
                  [&] { DramModel dram(config); });
    OuterSpaceConfig outerspace;
    outerspace.dram.maxOutstanding = 0;
    auto matrix = smallMatrix();
    expectRejects("DramConfig::maxOutstanding",
                  [&] { simulateOuterSpace(outerspace, matrix); });
}

TEST(SimConfigValidation, DramLatencyNegative)
{
    DramConfig config;
    config.latency = -1;
    expectRejects("DramConfig::latency", [&] { DramModel dram(config); });
}

TEST(SimConfigValidation, MergerLanesZero)
{
    MergerConfig config;
    config.lanes = 0;
    const sparse::PartialMatrix p{{0}, {sparse::Fiber{{0}, {1.0}}}};
    expectRejects("MergerConfig::lanes",
                  [&] { mergePairRowPartitioned(config, p, p); });
    expectRejects("MergerConfig::lanes", [&] {
        runMergeSchedule(config, MergerKind::RowPartitioned, {p, p});
    });
    // The flattened models do not use lanes.
    EXPECT_EQ(mergePairFlattened(config, p, p).mergedElements, 1);
}

TEST(SimConfigValidation, MergerThroughputZero)
{
    MergerConfig config;
    config.throughput = 0;
    const sparse::PartialMatrix p{{0}, {sparse::Fiber{{0}, {1.0}}}};
    expectRejects("MergerConfig::throughput",
                  [&] { mergePairFlattened(config, p, p); });
    expectRejects("MergerConfig::throughput", [&] {
        runMergeSchedule(config, MergerKind::Flattened, {p, p});
    });
    expectRejects("MergerConfig::throughput",
                  [&] { runHierarchicalMerge(config, {p, p}, 2); });
    // The row-partitioned model does not use throughput.
    EXPECT_EQ(mergePairRowPartitioned(config, p, p).mergedElements, 1);
}

TEST(SimConfigValidation, OuterSpaceWorkGroupsZero)
{
    OuterSpaceConfig config;
    config.workGroups = 0;
    auto matrix = smallMatrix();
    expectRejects("OuterSpaceConfig::workGroups",
                  [&] { simulateOuterSpace(config, matrix); });
}

TEST(SimConfigValidation, OuterSpaceMergeLanesZero)
{
    OuterSpaceConfig config;
    config.mergeLanes = 0;
    auto matrix = smallMatrix();
    expectRejects("OuterSpaceConfig::mergeLanes",
                  [&] { simulateOuterSpace(config, matrix); });
}

} // namespace
} // namespace stellar::sim
