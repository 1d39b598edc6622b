/**
 * @file
 * Differential determinism tests for the parallel simulation driver and
 * the batched watchdogs.
 *
 * Two properties carry every figure bench in the repo:
 *
 *  1. sim::runMany is *byte-identical* at every thread count: for each
 *     cycle simulator, a serial sweep and 2/4-thread sweeps must render
 *     bit-for-bit identical result records (doubles compared via
 *     hexfloat rendering, so even a 1-ulp divergence fails).
 *
 *  2. util::WatchdogBatcher is *budget-exact*: batched ticking expires
 *     at exactly the same step, with the same stage and the same
 *     diagnostic dump, as per-step ticking. The per-step oracle is the
 *     batcher itself degraded to batch size 1 via WatchdogBatchOverride
 *     — the same code path the sims run in production, just unbatched.
 *
 * The wall-clock deadline tests drive a deliberately slow simulator via
 * util::fault's Stall class (a deterministic sleep at the sim.dram.wave
 * checkpoint) rather than trusting a fast host to be slow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "sim/dram.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sim/run_many.hpp"
#include "sim/scnn.hpp"
#include "sim/systolic.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/suitesparse.hpp"
#include "util/fault_inject.hpp"
#include "util/failure.hpp"
#include "util/watchdog.hpp"
#include "workloads/alexnet.hpp"
#include "workloads/cache.hpp"

namespace stellar
{
namespace
{

// Render a double so that any bit difference shows up in a string
// comparison (hexfloat is exact for finite values).
std::string
hex(double value)
{
    std::ostringstream out;
    out << std::hexfloat << value;
    return out.str();
}

// Run the same indexed sweep at 1/2/4 threads (and 0 = hardware
// concurrency) and require bit-identical rendered records.
template <typename Fn>
void
expectThreadCountInvariant(std::size_t n, Fn &&render)
{
    auto sweep = [&](std::size_t threads) {
        return sim::runMany(n, threads, render);
    };
    const std::vector<std::string> serial = sweep(1);
    ASSERT_EQ(serial.size(), n);
    for (std::size_t threads : {std::size_t(2), std::size_t(4),
                                std::size_t(0)}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(sweep(threads), serial);
    }
}

// ---------------------------------------------------------------------
// runMany: byte-identity across thread counts, per simulator

TEST(SimParallel, ScnnSweepIsThreadCountInvariant)
{
    const auto &layers = workloads::alexnetConvLayers();
    sim::ScnnConfig handwritten;
    sim::ScnnConfig generated;
    generated.stellarGenerated = true;
    expectThreadCountInvariant(layers.size(), [&](std::size_t i) {
        auto hand = sim::simulateScnnLayer(handwritten, layers[i], 1);
        auto gen = sim::simulateScnnLayer(generated, layers[i], 1);
        return std::to_string(hand.cycles) + "," +
               std::to_string(hand.multiplies) + "," +
               hex(hand.utilization) + "|" + std::to_string(gen.cycles) +
               "," + std::to_string(gen.multiplies) + "," +
               hex(gen.utilization);
    });
}

TEST(SimParallel, SystolicSweepIsThreadCountInvariant)
{
    struct Shape
    {
        std::int64_t m, n, k;
    };
    const std::vector<Shape> shapes = {
            {64, 64, 64}, {128, 64, 32}, {56, 56, 256}, {12, 200, 48}};
    expectThreadCountInvariant(shapes.size(), [&](std::size_t i) {
        sim::SystolicConfig config;
        auto dense = sim::simulateSystolicMatmul(config, shapes[i].m,
                                                 shapes[i].n,
                                                 shapes[i].k);
        auto sparse = sim::simulateStructuredSparseMatmul(
                config, shapes[i].m, shapes[i].n, shapes[i].k, 2, 4);
        return std::to_string(dense.cycles) + "," +
               std::to_string(dense.macs) + "," +
               hex(dense.utilization) + "|" +
               std::to_string(sparse.cycles) + "," +
               std::to_string(sparse.macs) + "," +
               hex(sparse.utilization);
    });
}

TEST(SimParallel, OuterSpaceSweepIsThreadCountInvariant)
{
    const std::vector<const char *> names = {"poisson3Da", "wiki-Vote",
                                             "email-Enron", "scircuit"};
    sim::OuterSpaceConfig config;
    config.dma = sim::DmaConfig::withRate(16);
    expectThreadCountInvariant(names.size(), [&](std::size_t i) {
        auto matrix = sparse::synthesize(
                sparse::scaleProfile(sparse::profileByName(names[i]),
                                     20000), 1);
        auto result = sim::simulateOuterSpace(config, matrix);
        return std::to_string(result.cycles) + "," +
               std::to_string(result.multiplies) + "," +
               std::to_string(result.dramBytes) + "," +
               std::to_string(result.pointerStallCycles) + "," +
               std::to_string(result.balancerShifts) + "," +
               hex(result.multiplyUtilization);
    });
}

TEST(SimParallel, MergerSweepIsThreadCountInvariant)
{
    const std::vector<const char *> names = {"poisson3Da", "wiki-Vote",
                                             "email-Enron"};
    sim::MergerConfig config;
    expectThreadCountInvariant(names.size(), [&](std::size_t i) {
        auto matrix = sparse::synthesize(
                sparse::scaleProfile(sparse::profileByName(names[i]),
                                     8000), 2);
        auto partials = sparse::outerProductPartials(
                sparse::csrToCsc(matrix), matrix);
        auto row = sim::runMergeSchedule(
                config, sim::MergerKind::RowPartitioned, partials);
        auto flat = sim::runMergeSchedule(
                config, sim::MergerKind::Flattened, partials);
        auto tree = sim::runHierarchicalMerge(config, partials, 16);
        return std::to_string(row.cycles) + "," +
               std::to_string(row.mergedElements) + "|" +
               std::to_string(flat.cycles) + "," +
               std::to_string(flat.mergedElements) + "|" +
               std::to_string(tree.cycles) + "," +
               std::to_string(tree.mergedElements);
    });
}

TEST(SimParallel, DramSweepIsThreadCountInvariant)
{
    const std::vector<int> rates = {1, 2, 4, 8, 16};
    expectThreadCountInvariant(rates.size(), [&](std::size_t i) {
        sim::DramModel dram((sim::DramConfig()));
        std::vector<sim::TransferChunk> chunks;
        for (int c = 0; c < 300; c++)
            chunks.push_back(sim::TransferChunk{64 + 8 * (c % 7),
                                                c % 3 == 0});
        auto result = sim::simulateTransfer(
                sim::DmaConfig::withRate(rates[i]), dram, chunks);
        return std::to_string(result.cycles) + "," +
               std::to_string(result.requests) + "," +
               std::to_string(result.bytes) + "," +
               std::to_string(result.pointerStallCycles);
    });
}

// A figure-bench-style reduction: the whole rendered table — the thing
// the benches actually print — must be byte-identical at every thread
// count, not just the per-point records.
TEST(SimParallel, FigureStyleTableIsByteIdentical)
{
    const auto &layers = workloads::alexnetConvLayers();
    sim::ScnnConfig config;
    auto table_at = [&](std::size_t threads) {
        auto points = sim::runMany(
                layers.size(), threads, [&](std::size_t i) {
                    return sim::simulateScnnLayer(config, layers[i], 1);
                });
        std::ostringstream out;
        double total = 0.0;
        for (std::size_t i = 0; i < layers.size(); i++) {
            total += points[i].utilization;
            out << layers[i].name << " " << points[i].cycles << " "
                << hex(points[i].utilization) << "\n";
        }
        out << "mean " << hex(total / double(layers.size())) << "\n";
        return out.str();
    };
    const std::string serial = table_at(1);
    EXPECT_EQ(table_at(2), serial);
    EXPECT_EQ(table_at(4), serial);
}

// ---------------------------------------------------------------------
// runMany: failure and watchdog semantics

TEST(SimParallel, LowestIndexExceptionSurfacesAtEveryThreadCount)
{
    auto surfaced = [&](std::size_t threads) -> std::string {
        try {
            sim::runMany(8, threads, [&](std::size_t i) -> int {
                if (i >= 3)
                    throw std::runtime_error(
                            "point " + std::to_string(i) + " failed");
                return int(i);
            });
        } catch (const std::exception &err) {
            return err.what();
        }
        return "";
    };
    EXPECT_EQ(surfaced(1), "point 3 failed");
    EXPECT_EQ(surfaced(2), "point 3 failed");
    EXPECT_EQ(surfaced(4), "point 3 failed");
}

TEST(SimParallel, WatchdogBudgetsAreClonedPerPoint)
{
    // 6 points x 60 steps = 360 > the 100-step budget: only per-point
    // budget cloning lets every point pass, serially and in parallel.
    util::WatchdogScope scope("per-point", 100);
    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(4)}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        auto steps = sim::runMany(6, threads, [&](std::size_t) {
            {
                util::WatchdogBatcher dog;
                for (int s = 0; s < 60; s++)
                    dog.step([]() { return std::string(); });
            }
            return util::currentWatchdog()->stepsExecuted();
        });
        for (auto executed : steps)
            EXPECT_EQ(executed, 60);
    }
}

TEST(SimParallel, PerPointExpiryIsIdenticalAtEveryThreadCount)
{
    auto expiry = [&](std::size_t threads) -> std::string {
        util::WatchdogScope scope("per-point", 40);
        try {
            sim::runMany(4, threads, [&](std::size_t i) {
                util::WatchdogBatcher dog;
                int limit = i == 2 ? 1000 : 10;
                for (int s = 0; s < limit; s++)
                    dog.step([&]() {
                        return "point " + std::to_string(i) + " step " +
                               std::to_string(s);
                    });
                return 0;
            });
        } catch (const util::TimeoutError &err) {
            return err.stage() + ": " + err.diagnostic() + " (step " +
                   std::to_string(err.steps()) + ")";
        }
        return "";
    };
    const std::string serial = expiry(1);
    EXPECT_NE(serial.find("point 2 step 40"), std::string::npos);
    EXPECT_EQ(expiry(2), serial);
    EXPECT_EQ(expiry(4), serial);
}

// ---------------------------------------------------------------------
// Batched watchdogs: budget-exact expiry vs the per-step oracle

struct Expiry
{
    bool hit = false;
    std::string stage, diagnostic;
    std::int64_t steps = 0, budget = 0;

    bool
    operator==(const Expiry &other) const
    {
        return hit == other.hit && stage == other.stage &&
               diagnostic == other.diagnostic && steps == other.steps &&
               budget == other.budget;
    }
};

/** Run `fn` under a step budget at the given batch size (0 = default
 *  batching, 1 = the per-step oracle) and capture the expiry. */
template <typename Fn>
Expiry
expiryAt(std::int64_t budget, std::int64_t batch, Fn &&fn)
{
    util::WatchdogBatchOverride override_batch(batch);
    util::WatchdogScope scope("sim", budget);
    Expiry expiry;
    try {
        fn();
    } catch (const util::TimeoutError &err) {
        expiry.hit = true;
        expiry.stage = err.stage();
        expiry.diagnostic = err.diagnostic();
        expiry.steps = err.steps();
        expiry.budget = err.budget();
    }
    return expiry;
}

template <typename Fn>
void
expectBatchingExact(std::int64_t budget, Fn &&fn)
{
    const Expiry oracle = expiryAt(budget, 1, fn);
    ASSERT_TRUE(oracle.hit) << "budget never expired";
    EXPECT_EQ(oracle.steps, budget + 1);
    for (std::int64_t batch : {std::int64_t(0), std::int64_t(3),
                               std::int64_t(7), std::int64_t(1000)}) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        EXPECT_EQ(expiryAt(budget, batch, fn), oracle);
    }
}

TEST(WatchdogBatching, SystolicExpiryMatchesPerStep)
{
    sim::SystolicConfig config;
    expectBatchingExact(2, [&]() {
        sim::simulateSystolicMatmul(config, 64, 256, 256);
    });
}

TEST(WatchdogBatching, ScnnExpiryMatchesPerStep)
{
    sim::ScnnConfig config;
    const auto &layer = workloads::alexnetConvLayers()[1];
    expectBatchingExact(3, [&]() {
        sim::simulateScnnLayer(config, layer, 1);
    });
}

TEST(WatchdogBatching, OuterSpaceExpiryMatchesPerStep)
{
    auto matrix = sparse::synthesize(
            sparse::scaleProfile(sparse::profileByName("wiki-Vote"),
                                 5000), 1);
    expectBatchingExact(5, [&]() {
        sim::simulateOuterSpace(sim::OuterSpaceConfig(), matrix);
    });
}

TEST(WatchdogBatching, MergerExpiryMatchesPerStep)
{
    std::vector<sparse::PartialMatrix> partials;
    for (int p = 0; p < 12; p++) {
        sparse::PartialMatrix partial;
        partial.rowIds.push_back(p % 3);
        partial.rowFibers.push_back(
                sparse::Fiber{{0, 1, 2}, {1.0, 2.0, 3.0}});
        partials.push_back(partial);
    }
    expectBatchingExact(3, [&]() {
        sim::runMergeSchedule(sim::MergerConfig(),
                              sim::MergerKind::Flattened, partials);
    });
    expectBatchingExact(2, [&]() {
        sim::runHierarchicalMerge(sim::MergerConfig(), partials, 4);
    });
}

TEST(WatchdogBatching, DramExpiryMatchesPerStep)
{
    expectBatchingExact(8, [&]() {
        sim::DramModel dram((sim::DramConfig()));
        sim::simulateStream(sim::DmaConfig(), dram, 1 << 20);
    });
}

/** Steps `fn` charges when it runs to completion. */
template <typename Fn>
std::int64_t
stepsOf(Fn &&fn)
{
    util::WatchdogScope scope("sim", 0);
    fn();
    return scope.watchdog().stepsExecuted();
}

/** The bursts simulateStream moves, spelled out as chunks. */
std::vector<sim::TransferChunk>
burstChunks(std::int64_t bytes, std::int64_t burst)
{
    std::vector<sim::TransferChunk> chunks;
    for (std::int64_t off = 0; off < bytes; off += burst)
        chunks.push_back(sim::TransferChunk{std::min(burst, bytes - off)});
    return chunks;
}

/**
 * A 1 MB stream replays most of its waves whole periods at a time; the
 * same bursts as a chunk list step every wave. Their step counts and
 * their expiries must agree at budgets before the first replayed wave
 * (8), inside the replayed region (half), and in the waves kept after
 * it (the last three), at both DMA rates.
 */
TEST(WatchdogBatching, StreamExpiryMatchesThePerWaveLoop)
{
    const sim::DramConfig config;
    const std::int64_t bytes = 1 << 20;
    const auto chunks = burstChunks(bytes, config.minBurstBytes);
    for (int rate : {1, 16}) {
        SCOPED_TRACE("rate " + std::to_string(rate));
        const auto dma = sim::DmaConfig::withRate(rate);
        auto stream = [&]() {
            sim::DramModel dram(config);
            sim::simulateStream(dma, dram, bytes);
        };
        auto per_wave = [&]() {
            sim::DramModel dram(config);
            sim::simulateTransfer(dma, dram, chunks);
        };
        const std::int64_t waves = stepsOf(per_wave);
        ASSERT_GT(waves, 2000);
        EXPECT_EQ(stepsOf(stream), waves);
        for (std::int64_t budget :
                {std::int64_t(8), waves / 2, waves - 3, waves - 1}) {
            SCOPED_TRACE("budget " + std::to_string(budget));
            expectBatchingExact(budget, stream);
            EXPECT_EQ(expiryAt(budget, 0, stream),
                      expiryAt(budget, 0, per_wave));
        }
        EXPECT_FALSE(expiryAt(waves, 0, stream).hit);
    }
}

/**
 * While an injection is armed the stream replays nothing, so the
 * sim.dram.wave checkpoint fires once per wave, past the transient
 * included, and a budget inside the would-be-replayed region still
 * expires where the per-wave loop does.
 */
TEST(WatchdogBatching, ArmedWaveCheckpointFiresAtEveryWave)
{
    const sim::DramConfig config;
    const std::int64_t bytes = 1 << 20;
    const auto chunks = burstChunks(bytes, config.minBurstBytes);
    const auto dma = sim::DmaConfig::withRate(16);
    auto stream = [&]() {
        sim::DramModel dram(config);
        sim::simulateStream(dma, dram, bytes);
    };
    auto per_wave = [&]() {
        sim::DramModel dram(config);
        sim::simulateTransfer(dma, dram, chunks);
    };
    const std::int64_t waves = stepsOf(per_wave);

    util::fault::InjectionSpec spec;
    spec.stage = "sim.dram.wave";
    spec.cls = util::fault::FaultClass::Stall;
    spec.stallMicros = 0;
    spec.allContexts = true;
    util::fault::ScopedArm arm(spec);
    const std::uint64_t before = util::fault::firedCount();
    EXPECT_EQ(stepsOf(stream), waves);
    EXPECT_EQ(util::fault::firedCount() - before, std::uint64_t(waves));

    const std::int64_t budget = waves / 2;
    const std::uint64_t at_expiry = util::fault::firedCount();
    const Expiry expiry = expiryAt(budget, 0, stream);
    EXPECT_TRUE(expiry.hit);
    EXPECT_EQ(util::fault::firedCount() - at_expiry,
              std::uint64_t(budget + 1));
    EXPECT_EQ(expiry, expiryAt(budget, 0, per_wave));
}

/**
 * A loop's batcher must release its unspent batch before a later loop
 * of the same simulation charges: OuterSPACE's column loop precedes
 * its write-out stream, and the systolic tile loop precedes its DRAM
 * stream. Budgets three steps short of the whole run land in those
 * streams.
 */
TEST(WatchdogBatching, ExpiryAfterAnEarlierLoopMatchesPerStep)
{
    auto matrix = sparse::synthesize(
            sparse::scaleProfile(sparse::profileByName("wiki-Vote"),
                                 5000), 1);
    auto outerspace = [&]() {
        sim::simulateOuterSpace(sim::OuterSpaceConfig(), matrix);
    };
    expectBatchingExact(stepsOf(outerspace) - 3, outerspace);

    sim::SystolicConfig config;
    auto systolic = [&]() {
        sim::simulateSystolicMatmul(config, 64, 256, 256);
    };
    expectBatchingExact(stepsOf(systolic) - 3, systolic);
}

/**
 * The step counts `stellar_cli sim --workload outerspace` charges: one
 * per DRAM wave, replayed stream periods included, and one per
 * outer-product column. CI pins the largest end to end through
 * --step-budget; docs/PERF.md records both.
 */
TEST(WatchdogBatching, OuterSpaceSuiteStepCountsArePinned)
{
    sim::OuterSpaceConfig config;
    config.dma = sim::DmaConfig::withRate(16);
    std::int64_t total = 0, largest = 0;
    for (const auto &profile : sparse::outerSpaceSuite()) {
        const auto matrix = sparse::synthesize(
                sparse::scaleProfile(profile, 60000), 1);
        const std::int64_t steps = stepsOf(
                [&]() { sim::simulateOuterSpace(config, matrix); });
        total += steps;
        largest = std::max(largest, steps);
    }
    EXPECT_EQ(total, 2224171);
    EXPECT_EQ(largest, 173606);
}

TEST(WatchdogBatching, RefundKeepsStepAccountingExact)
{
    // A batched loop that ends mid-batch must leave stepsExecuted at
    // the work actually done, so a later loop on the same watchdog
    // expires at exactly the same step as fully per-step ticking.
    auto run = [&](std::int64_t batch) {
        util::WatchdogBatchOverride override_batch(batch);
        util::WatchdogScope scope("seq", 100);
        {
            util::WatchdogBatcher first;
            for (int s = 0; s < 30; s++)
                first.step([]() { return std::string(); });
        }
        EXPECT_EQ(scope.watchdog().stepsExecuted(), 30);
        try {
            util::WatchdogBatcher second;
            for (int s = 0;; s++)
                second.step([&]() {
                    return "second loop step " + std::to_string(s);
                });
        } catch (const util::TimeoutError &err) {
            return err.diagnostic() + " @" + std::to_string(err.steps());
        }
        return std::string("budget never expired");
    };
    const std::string oracle = run(1);
    EXPECT_EQ(oracle, "second loop step 70 @101");
    EXPECT_EQ(run(0), oracle);
    EXPECT_EQ(run(17), oracle);
}

TEST(WatchdogBatching, ThrowAfterCacheHitStillRefundsCredit)
{
    // Same accounting contract as above, but the loop exits by
    // *exception* right after a workload-cache hit instead of falling
    // off the end: stack unwinding must still refund the batcher's
    // unconsumed credit (and the hit itself must charge nothing), so a
    // later loop on the same watchdog expires at exactly the per-step
    // oracle's step.
    auto profile = sparse::scaleProfile(
            sparse::profileByName("poisson3Da"), 3000);
    workloads::cachedSuiteSparse(profile, 9); // warm: the run below hits
    auto run = [&](std::int64_t batch) {
        util::WatchdogBatchOverride override_batch(batch);
        util::WatchdogScope scope("seq", 100);
        try {
            util::WatchdogBatcher first;
            for (int s = 0;; s++) {
                first.step([]() { return std::string(); });
                if (s == 29) {
                    auto matrix =
                            workloads::cachedSuiteSparse(profile, 9);
                    throw std::runtime_error(
                            "failed at nnz " +
                            std::to_string(matrix->nnz()));
                }
            }
        } catch (const std::runtime_error &) {
        }
        EXPECT_EQ(scope.watchdog().stepsExecuted(), 30);
        try {
            util::WatchdogBatcher second;
            for (int s = 0;; s++)
                second.step([&]() {
                    return "second loop step " + std::to_string(s);
                });
        } catch (const util::TimeoutError &err) {
            return err.diagnostic() + " @" + std::to_string(err.steps());
        }
        return std::string("budget never expired");
    };
    const std::string oracle = run(1);
    EXPECT_EQ(oracle, "second loop step 70 @101");
    EXPECT_EQ(run(0), oracle);
    EXPECT_EQ(run(17), oracle);
}

TEST(WatchdogBatching, NoWatchdogPathNeverTouchesTheDump)
{
    // Zero-cost regression: with no scope installed the batcher must be
    // inactive and must never evaluate the diagnostic dump; with a
    // scope but no expiry the dump still runs zero times; on expiry it
    // runs exactly once.
    ASSERT_EQ(util::currentWatchdog(), nullptr);
    int dumps = 0;
    {
        util::WatchdogBatcher dog;
        EXPECT_FALSE(dog.active());
        for (int s = 0; s < 1000000; s++)
            dog.step([&]() {
                dumps++;
                return std::string();
            });
    }
    EXPECT_EQ(dumps, 0);

    {
        util::WatchdogScope scope("quiet", 1000000);
        util::WatchdogBatcher dog;
        EXPECT_TRUE(dog.active());
        for (int s = 0; s < 1000; s++)
            dog.step([&]() {
                dumps++;
                return std::string();
            });
    }
    EXPECT_EQ(dumps, 0);

    util::WatchdogScope scope("expiring", 10);
    EXPECT_THROW(
            {
                util::WatchdogBatcher dog;
                for (int s = 0; s < 100; s++)
                    dog.step([&]() {
                        dumps++;
                        return std::string("state");
                    });
            },
            util::TimeoutError);
    EXPECT_EQ(dumps, 1) << "dump must be evaluated exactly once, on "
                           "expiry";
}

// ---------------------------------------------------------------------
// Wall-clock deadlines

TEST(WallClock, DeadlineCheckThrowsAWallClockTimeout)
{
    util::Watchdog dog("slow.stage", 0, 1);
    dog.tick(42);
    // Burn past the 1 ms deadline without sleeping precision games: the
    // deadline only needs to have passed, not by an exact margin.
    while (dog.millisElapsed() <= 1) {
    }
    try {
        dog.checkDeadline([]() { return std::string("queue state"); });
        FAIL() << "deadline never fired";
    } catch (const util::TimeoutError &err) {
        EXPECT_TRUE(err.isWallClock());
        EXPECT_EQ(err.stage(), "slow.stage");
        EXPECT_EQ(err.steps(), 42);
        EXPECT_EQ(err.millisBudget(), 1);
        EXPECT_GE(err.elapsedMillis(), 1);
        EXPECT_NE(err.diagnostic().find("queue state"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("wall-clock"),
                  std::string::npos);
    }
}

TEST(WallClock, FastSimulatorsStayUnderTheDeadline)
{
    // A generous deadline must never fire on a healthy simulator run —
    // the deadline exists for pathological inputs, not normal ones.
    util::WatchdogScope scope("sim", 0, 60000);
    sim::DramModel dram((sim::DramConfig()));
    auto result = sim::simulateStream(sim::DmaConfig(), dram, 1 << 20);
    EXPECT_GT(result.cycles, 0);
}

TEST(WallClock, StalledSimulatorHitsTheDeadline)
{
    // Deterministically slow simulator: a Stall fault sleeps 1 ms at
    // every sim.dram.wave checkpoint, so a 25 ms deadline must fire
    // within the first few dozen of the several hundred waves this
    // pointer-chased transfer needs. Batch size 8 keeps deadline checks
    // frequent without per-step clock reads.
    util::fault::InjectionSpec spec;
    spec.stage = "sim.dram.wave";
    spec.cls = util::fault::FaultClass::Stall;
    spec.stallMicros = 1000;
    spec.allContexts = true;
    util::fault::ScopedArm arm(spec);

    util::WatchdogBatchOverride override_batch(8);
    util::WatchdogScope scope("sim.sweep", 0, 25);
    std::vector<sim::TransferChunk> chunks;
    for (int c = 0; c < 400; c++)
        chunks.push_back(sim::TransferChunk{64, true});
    sim::DramModel dram((sim::DramConfig()));
    try {
        sim::simulateTransfer(sim::DmaConfig(), dram, chunks);
        FAIL() << "deadline never fired on the stalled transfer";
    } catch (const util::TimeoutError &err) {
        EXPECT_TRUE(err.isWallClock());
        EXPECT_EQ(err.stage(), "sim.sweep");
        EXPECT_EQ(err.millisBudget(), 25);
        EXPECT_GE(err.elapsedMillis(), 25);
        // The diagnostic is the sim's own dump — queue state included.
        EXPECT_NE(err.diagnostic().find("dram transfer"),
                  std::string::npos);
    }
}

TEST(WallClock, UnstalledRunOfTheSameTransferCompletes)
{
    // The identical transfer under the identical deadline, minus the
    // injected stall: must complete. This is the "does not fire on fast
    // sims" half of the wall-clock contract.
    util::WatchdogBatchOverride override_batch(8);
    util::WatchdogScope scope("sim.sweep", 0, 60000);
    std::vector<sim::TransferChunk> chunks;
    for (int c = 0; c < 400; c++)
        chunks.push_back(sim::TransferChunk{64, true});
    sim::DramModel dram((sim::DramConfig()));
    auto result = sim::simulateTransfer(sim::DmaConfig(), dram, chunks);
    EXPECT_EQ(result.bytes, 400 * (64 + 8));
}

} // namespace
} // namespace stellar
