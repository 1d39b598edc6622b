/**
 * @file
 * Tests for dataflow enumeration and the automated DSE driver: every
 * enumerated transform must be invertible and causal, known-good
 * dataflows must be covered, signature dedup must hold, and the DSE
 * ranking must be sound.
 */

#include <gtest/gtest.h>

#include "accel/dse.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "testkit/oracles.hpp"
#include "util/logging.hpp"

namespace stellar::dataflow
{
namespace
{

TEST(Enumerate, AllResultsAreInvertibleAndCausal)
{
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    auto transforms = testkit::collectTransforms(spec, options);
    ASSERT_FALSE(transforms.empty());
    for (const auto &t : transforms) {
        EXPECT_TRUE(t.matrix().isInvertible());
        EXPECT_TRUE(t.isCausalFor(spec));
    }
}

TEST(Enumerate, CoversClassicDataflowSignatures)
{
    // The enumeration must discover dataflows with the same displacement
    // structure as the hand-written output-stationary array: one
    // stationary operand and two unit-hop moving operands.
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    auto transforms = testkit::collectTransforms(spec, options);
    auto recurrences = spec.recurrences();
    bool found_os_like = false;
    for (const auto &t : transforms) {
        int stationary = 0, moving_one_hop = 0;
        for (const auto &rec : recurrences) {
            auto delta = t.deltaOf(rec.diff);
            if (vecIsZero(delta.space) && delta.time >= 1)
                stationary++;
            else if (vecL1(delta.space) == 1 && delta.time == 1)
                moving_one_hop++;
        }
        if (stationary == 1 && moving_one_hop == 2)
            found_os_like = true;
    }
    EXPECT_TRUE(found_os_like);
}

TEST(Enumerate, HopLengthConstraintIsRespected)
{
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    options.maxHopLength = 1;
    auto transforms = testkit::collectTransforms(spec, options);
    for (const auto &t : transforms)
        for (const auto &rec : spec.recurrences())
            EXPECT_LE(vecL1(t.deltaOf(rec.diff).space), 1);
}

TEST(Enumerate, BroadcastExclusionWorks)
{
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    options.allowBroadcast = false;
    auto transforms = testkit::collectTransforms(spec, options);
    ASSERT_FALSE(transforms.empty());
    for (const auto &t : transforms)
        for (const auto &rec : spec.recurrences())
            EXPECT_GE(t.deltaOf(rec.diff).time, 1) << t.name();
}

TEST(Enumerate, SignaturesAreUnique)
{
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    auto transforms = testkit::collectTransforms(spec, options);
    // Dedup means the count is far below the raw invertible-matrix count
    // (3^9 = 19683 raw matrices).
    EXPECT_LT(transforms.size(), 600u);
    EXPECT_GT(transforms.size(), 10u);
}

TEST(Enumerate, RejectsHugeSpaces)
{
    auto spec = func::matmulSpec();
    EnumerateOptions options;
    options.minCoeff = -10;
    options.maxCoeff = 10;
    EXPECT_THROW(testkit::collectTransforms(spec, options), FatalError);
}

TEST(Dse, RankingIsSortedAndComplete)
{
    accel::DseOptions options;
    options.topK = 5;
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto candidates = accel::exploreDataflows(
            func::matmulSpec(), {4, 4, 4}, options, area_params,
            timing_params);
    ASSERT_EQ(candidates.size(), 5u);
    for (std::size_t i = 1; i < candidates.size(); i++)
        EXPECT_LE(candidates[i - 1].score, candidates[i].score);
    for (const auto &candidate : candidates) {
        EXPECT_GT(candidate.pes, 0);
        EXPECT_GT(candidate.fmaxMhz, 0.0);
        EXPECT_GT(candidate.areaUm2, 0.0);
        EXPECT_GT(candidate.score, 0.0);
    }
}

TEST(Dse, MergeSpecExploresOneDimension)
{
    // The merge spec has a single iterator: the enumeration space is
    // tiny but must still work.
    auto spec = func::mergeSpec();
    EnumerateOptions options;
    auto transforms = testkit::collectTransforms(spec, options);
    ASSERT_FALSE(transforms.empty());
    for (const auto &t : transforms)
        EXPECT_EQ(t.dims(), 1);
}

} // namespace
} // namespace stellar::dataflow
