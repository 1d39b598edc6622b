/**
 * @file
 * Property tests for the DSE fast paths: the fused single-pass
 * applyTransform must match the naive multi-walk oracle field by field
 * on flat and hashed tables alike, and refuse a saturating transform,
 * the analytic probe must match elaborated counts exactly, sharded
 * enumeration must be byte-identical to the serial scan, the batched
 * watchdog must stay budget-exact, and the analytic maxPes prune must
 * be lossless.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

#include "accel/analytic.hpp"
#include "accel/dse.hpp"
#include "core/iteration_space.hpp"
#include "core/prune.hpp"
#include "core/spatial_array.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "sparsity/skip.hpp"
#include "testkit/oracles.hpp"
#include "util/logging.hpp"
#include "util/saturate.hpp"
#include "util/watchdog.hpp"

namespace stellar
{
namespace
{

/** CSR B on matmul: prunes the accumulation conn, so the walk sees a
 *  space whose alive conns differ from the dense one. */
sparsity::SparsitySpec
csrB(const func::FunctionalSpec &matmul)
{
    sparsity::SparsitySpec spec;
    spec.add(sparsity::skipWhenZero(
            1, matmul.tensorIdByName("B"),
            {func::makeIndexExpr(2), func::makeIndexExpr(1)}));
    return spec;
}

/** The randomized scenarios shared by the fused and analytic checks. */
struct Scenario
{
    func::FunctionalSpec spec;
    IntVec bounds;
    sparsity::SparsitySpec sparsity;
};

/** Seeded spec + bounds (+ occasional sparsity) combinations. */
std::vector<Scenario>
scenarios(int seeds)
{
    std::vector<Scenario> result;
    for (int seed = 0; seed < seeds; seed++) {
        std::mt19937 rng(std::uint32_t(seed) * 7919u + 13u);
        auto spec = seed % 3 == 0   ? func::matmulSpec()
                    : seed % 3 == 1 ? func::matAddSpec()
                                    : func::mergeSpec();
        Scenario s{std::move(spec), {}, {}};
        std::uniform_int_distribution<std::int64_t> bound(2, 5);
        for (int i = 0; i < s.spec.numIndices(); i++)
            s.bounds.push_back(bound(rng));
        if (seed % 3 == 0 && seed % 2 == 1)
            s.sparsity = csrB(s.spec);
        result.push_back(std::move(s));
    }
    return result;
}

/** Slots a flat walk table may hold; larger boxes are keyed by hash. */
constexpr std::int64_t kFlatSlots = std::int64_t(1) << 21;

/**
 * Unsaturated matmul transforms whose spatial image box (the first
 * two) or time range (the last) of a 4x4x4 space exceeds kFlatSlots,
 * so applyTransform walks them with hashed tables.
 */
std::vector<dataflow::SpaceTimeTransform>
nonDenseTransforms()
{
    using dataflow::SpaceTimeTransform;
    return {SpaceTimeTransform(
                    IntMatrix{{1000, 1, 0}, {0, 1000, 1}, {1, 1, 1}}, "wide"),
            SpaceTimeTransform(
                    IntMatrix{{1000, -1, 0}, {0, 1, -1000}, {1, 1, 1}},
                    "wide-signed"),
            SpaceTimeTransform(
                    IntMatrix{{1, 0, 0}, {0, 1, 0}, {1, 1, 1000000}},
                    "long")};
}

void
expectSameArray(const core::SpatialArray &fused,
                const core::SpatialArray &naive)
{
    ASSERT_EQ(fused.numPes(), naive.numPes());
    for (std::size_t i = 0; i < fused.pes().size(); i++) {
        const auto &f = fused.pes()[i];
        const auto &n = naive.pes()[i];
        EXPECT_EQ(f.position, n.position) << "pe " << i;
        EXPECT_EQ(f.foldedPoints, n.foldedPoints) << "pe " << i;
        EXPECT_EQ(f.firstTime, n.firstTime) << "pe " << i;
        EXPECT_EQ(f.lastTime, n.lastTime) << "pe " << i;
    }
    ASSERT_EQ(fused.wires().size(), naive.wires().size());
    for (std::size_t i = 0; i < fused.wires().size(); i++) {
        const auto &f = fused.wires()[i];
        const auto &n = naive.wires()[i];
        EXPECT_EQ(f.tensor, n.tensor) << "wire " << i;
        EXPECT_EQ(f.spaceDelta, n.spaceDelta) << "wire " << i;
        EXPECT_EQ(f.registers, n.registers) << "wire " << i;
        EXPECT_EQ(f.bundleSize, n.bundleSize) << "wire " << i;
        EXPECT_EQ(f.instances, n.instances) << "wire " << i;
        EXPECT_EQ(f.wireLength, n.wireLength) << "wire " << i;
    }
    ASSERT_EQ(fused.ports().size(), naive.ports().size());
    for (std::size_t i = 0; i < fused.ports().size(); i++) {
        const auto &f = fused.ports()[i];
        const auto &n = naive.ports()[i];
        EXPECT_EQ(f.tensor, n.tensor) << "port " << i;
        EXPECT_EQ(f.externalTensor, n.externalTensor) << "port " << i;
        EXPECT_EQ(f.isInput, n.isInput) << "port " << i;
        EXPECT_EQ(f.perPoint, n.perPoint) << "port " << i;
        EXPECT_EQ(f.portCount, n.portCount) << "port " << i;
        EXPECT_EQ(f.maxPerCycle, n.maxPerCycle) << "port " << i;
    }
    EXPECT_EQ(fused.scheduleLength(), naive.scheduleLength());
    EXPECT_EQ(fused.extents(), naive.extents());
}

TEST(FastPath, FusedMatchesNaiveOnEnumeratedTransforms)
{
    int transforms_checked = 0;
    for (const auto &scenario : scenarios(12)) {
        auto space = core::elaborate(scenario.spec, scenario.bounds);
        core::applySparsity(space, scenario.sparsity);
        dataflow::EnumerateOptions en;
        en.limit = 24;
        en.threads = 1;
        for (const auto &t :
             testkit::collectTransforms(scenario.spec, en)) {
            SCOPED_TRACE(t.matrix().toString() + " bounds " +
                         vecToString(scenario.bounds));
            expectSameArray(core::applyTransform(space, t),
                            testkit::applyTransformNaive(space, t));
            transforms_checked++;
        }
    }
    // The property is vacuous if enumeration found nothing.
    EXPECT_GT(transforms_checked, 100);

    // Boxes too large for flat tables, on the dense and CSR-B spaces.
    auto matmul = func::matmulSpec();
    IntVec bounds = {4, 4, 4};
    for (bool sparse_b : {false, true}) {
        auto space = core::elaborate(matmul, bounds);
        if (sparse_b)
            core::applySparsity(space, csrB(matmul));
        for (const auto &t : nonDenseTransforms()) {
            SCOPED_TRACE(t.name() + (sparse_b ? " csr-b" : " dense"));
            auto probe = accel::analyticProbe(t, bounds, space);
            ASSERT_FALSE(probe.saturated);
            std::int64_t box = 1;
            for (std::int64_t extent : probe.extents)
                box *= extent;
            EXPECT_TRUE(box > kFlatSlots ||
                        probe.scheduleLength > kFlatSlots)
                    << "box " << box << ", steps " << probe.scheduleLength;
            expectSameArray(core::applyTransform(space, t),
                            testkit::applyTransformNaive(space, t));
        }
    }
}

TEST(FastPath, SaturatedGeometryIsRejectedBeforeAnyWalk)
{
    // Each transform reaches 3 * 2^62 on one row of a 4x4x4 box, so a
    // walk would overflow a position or a timestep: the array and the
    // access order both refuse it up front.
    std::int64_t huge = std::int64_t(1) << 62;
    auto matmul = func::matmulSpec();
    auto space = core::elaborate(matmul, {4, 4, 4});
    int a = matmul.tensorIdByName("A");
    for (const auto &t : {dataflow::SpaceTimeTransform(
                                  IntMatrix{{huge, 0, 0}, {0, 1, 0},
                                            {1, 1, 1}},
                                  "wide"),
                          dataflow::SpaceTimeTransform(
                                  IntMatrix{{1, 0, 0}, {0, 1, 0},
                                            {huge, 1, 1}},
                                  "late")}) {
        SCOPED_TRACE(t.name());
        EXPECT_THROW(core::applyTransform(space, t), FatalError);
        EXPECT_THROW(core::arrayAccessOrder(space, t, a), FatalError);
    }
}

TEST(FastPath, HashedWalkExpiresBudgetExact)
{
    // The hashed walk charges one step per point, like the flat one.
    auto space = core::elaborate(func::matmulSpec(), {8, 8, 8});
    const auto t = nonDenseTransforms().front();
    {
        util::WatchdogScope scope("walk", 100);
        EXPECT_THROW(core::applyTransform(space, t), util::TimeoutError);
    }
    util::WatchdogScope scope("walk", 512);
    EXPECT_EQ(core::applyTransform(space, t).numPes(), 512);
    EXPECT_EQ(util::currentWatchdog()->stepsExecuted(), 512);
}

TEST(FastPath, AnalyticMatchesElaboratedCounts)
{
    for (const auto &scenario : scenarios(12)) {
        auto space = core::elaborate(scenario.spec, scenario.bounds);
        core::applySparsity(space, scenario.sparsity);
        dataflow::EnumerateOptions en;
        en.limit = 24;
        en.threads = 1;
        for (const auto &t :
             testkit::collectTransforms(scenario.spec, en)) {
            SCOPED_TRACE(t.matrix().toString() + " bounds " +
                         vecToString(scenario.bounds));
            auto array = core::applyTransform(space, t);
            auto probe =
                    accel::analyticProbe(t, scenario.bounds, space);
            EXPECT_FALSE(probe.saturated);
            EXPECT_EQ(probe.pes, array.numPes());
            EXPECT_EQ(accel::analyticPeCount(t, scenario.bounds),
                      array.numPes());
            EXPECT_EQ(probe.scheduleLength, array.scheduleLength());
            EXPECT_EQ(probe.extents, array.extents());
            ASSERT_EQ(probe.wires.size(), array.wires().size());
            for (std::size_t w = 0; w < probe.wires.size(); w++) {
                EXPECT_EQ(probe.wires[w].tensor, array.wires()[w].tensor);
                EXPECT_EQ(probe.wires[w].spaceDelta,
                          array.wires()[w].spaceDelta);
                EXPECT_EQ(probe.wires[w].registers,
                          array.wires()[w].registers);
                EXPECT_EQ(probe.wires[w].instances,
                          array.wires()[w].instances);
                EXPECT_EQ(probe.wires[w].wireLength,
                          array.wires()[w].wireLength);
            }
            EXPECT_EQ(probe.totalWires(), array.totalWires());
            EXPECT_EQ(probe.totalWireLength(), array.totalWireLength());
        }
    }
}

TEST(FastPath, EnumerationShardingIsByteIdentical)
{
    auto spec = func::matmulSpec();
    for (std::size_t limit : {std::size_t(4096), std::size_t(20)}) {
        dataflow::EnumerateOptions serial;
        serial.threads = 1;
        serial.limit = limit;
        auto expected = testkit::collectTransforms(spec, serial);
        ASSERT_FALSE(expected.empty());
        for (std::size_t threads : {2u, 4u}) {
            dataflow::EnumerateOptions sharded = serial;
            sharded.threads = threads;
            auto got = testkit::collectTransforms(spec, sharded);
            ASSERT_EQ(got.size(), expected.size())
                    << threads << " threads, limit " << limit;
            for (std::size_t i = 0; i < got.size(); i++) {
                EXPECT_EQ(got[i].name(), expected[i].name());
                EXPECT_EQ(got[i].matrix(), expected[i].matrix());
            }
        }
    }
}

TEST(FastPath, BatchedWalkExpiresBudgetExact)
{
    auto space = core::elaborate(func::matmulSpec(), {8, 8, 8});
    ASSERT_EQ(space.numPoints(), 512);
    // Budgets straddling every batch boundary, including one point
    // before/at/after a full 256-point batch and one point short of the
    // whole walk.
    for (std::int64_t budget : {1, 10, 255, 256, 257, 511}) {
        util::WatchdogScope scope("walk", budget);
        std::int64_t visited = 0;
        try {
            space.forEachPoint([&](const IntVec &) { visited++; });
            FAIL() << "budget " << budget << " did not expire";
        } catch (const util::TimeoutError &err) {
            EXPECT_EQ(visited, budget) << "budget " << budget;
            EXPECT_EQ(err.steps(), budget + 1);
            EXPECT_NE(err.diagnostic().find("last point"),
                      std::string::npos);
        }
    }
    // Budgets at or above the walk length never fire, and the charge
    // equals the number of points exactly.
    for (std::int64_t budget : {512, 600, 0}) {
        util::WatchdogScope scope("walk", budget);
        std::int64_t visited = 0;
        space.forEachPoint([&](const IntVec &) { visited++; });
        EXPECT_EQ(visited, 512);
        EXPECT_EQ(util::currentWatchdog()->stepsExecuted(), 512);
    }
}

TEST(FastPath, AnalyticProbeSaturatesAtExtremeCoefficients)
{
    // A transform whose first spatial row reaches ~3 * 2^62: the old
    // bounding-box prune would wrap and misclassify it, the saturating
    // probe pins the extent at the int64 ceiling and still computes the
    // exact PE count (the kernel is unaffected by the huge row).
    std::int64_t huge = std::int64_t(1) << 62;
    dataflow::SpaceTimeTransform t(
            IntMatrix{{huge, 1, 0}, {0, 1, 0}, {0, 0, 1}}, "extreme");
    IntVec bounds = {4, 4, 4};
    EXPECT_EQ(accel::analyticPeCount(t, bounds), 16);

    auto space = core::elaborate(func::matmulSpec(), bounds);
    auto probe = accel::analyticProbe(t, bounds, space);
    EXPECT_TRUE(probe.saturated);
    EXPECT_EQ(probe.pes, 16);
    EXPECT_EQ(probe.extents[0],
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(probe.scheduleLength, 4);
}

TEST(FastPath, MaxPesPruneIsLossless)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto spec = func::matmulSpec();
    IntVec bounds = {6, 6, 6};

    accel::DseOptions full;
    full.topK = 100000;
    full.threads = 1;
    accel::DseStats full_stats;
    auto everything = accel::exploreDataflows(
            spec, bounds, full, area_params, timing_params, &full_stats);

    accel::DseOptions pruned = full;
    pruned.maxPes = 40;
    accel::DseStats pruned_stats;
    auto survivors = accel::exploreDataflows(spec, bounds, pruned,
                                             area_params, timing_params,
                                             &pruned_stats);

    // Lossless: the pruned ranking is exactly the full ranking with the
    // over-cap candidates removed — nothing under the cap was dropped.
    std::vector<std::size_t> expected;
    for (const auto &candidate : everything)
        if (candidate.pes <= pruned.maxPes)
            expected.push_back(candidate.enumIndex);
    ASSERT_EQ(survivors.size(), expected.size());
    for (std::size_t i = 0; i < survivors.size(); i++) {
        EXPECT_EQ(survivors[i].enumIndex, expected[i]);
        EXPECT_LE(survivors[i].pes, pruned.maxPes);
    }
    EXPECT_GT(pruned_stats.prunedEarly, 0u);
    EXPECT_EQ(pruned_stats.evaluated + pruned_stats.prunedEarly +
                      pruned_stats.failed,
              pruned_stats.enumerated);
}

TEST(Saturate, ClampsAtTheInt64Boundaries)
{
    std::int64_t max = std::numeric_limits<std::int64_t>::max();
    std::int64_t min = std::numeric_limits<std::int64_t>::min();

    bool saturated = false;
    EXPECT_EQ(util::satAdd(2, 3, &saturated), 5);
    EXPECT_EQ(util::satMul(-4, 5, &saturated), -20);
    EXPECT_FALSE(saturated);

    EXPECT_EQ(util::satAdd(max, 1, &saturated), max);
    EXPECT_TRUE(saturated);
    saturated = false;
    EXPECT_EQ(util::satAdd(min, -1, &saturated), min);
    EXPECT_TRUE(saturated);
    saturated = false;
    EXPECT_EQ(util::satMul(std::int64_t(1) << 40, std::int64_t(1) << 40,
                           &saturated),
              max);
    EXPECT_TRUE(saturated);
    saturated = false;
    EXPECT_EQ(util::satMul(std::int64_t(1) << 40,
                           -(std::int64_t(1) << 40), &saturated),
              min);
    EXPECT_TRUE(saturated);

    // The flag pointer is optional.
    EXPECT_EQ(util::satAdd(max, max), max);
    EXPECT_EQ(util::satMul(min, 2), min);
}

} // namespace
} // namespace stellar
