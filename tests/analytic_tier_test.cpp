/**
 * @file
 * Contract tests for the elaboration-free analytic scoring tier.
 *
 * The tier's whole value rests on two properties, and both are pinned
 * here: (1) exactness — with an empty balancing spec the closed-form
 * AnalyticCostModel score is BIT-identical to the elaborated score for
 * every enumerated candidate, so the analytic-first top-K reproduces
 * the full exploration's top-K (and in particular always contains the
 * full-elaboration winner); (2) determinism — analytic-tier rankings
 * are byte-identical at any evaluation thread count and any
 * enumeration shard count, and saturated (clamped) analytic results
 * always rank after every honestly-counted candidate in the shared
 * AnalyticTopK selection (the 2^62-coefficient regression). The phase
 * timers are pinned too: analyticMs times only the scoring calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <random>
#include <vector>

#include "accel/analytic.hpp"
#include "accel/analytic_cost.hpp"
#include "accel/dse.hpp"
#include "core/iteration_space.hpp"
#include "core/prune.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "sparsity/skip.hpp"
#include "testkit/oracles.hpp"
#include "util/watchdog.hpp"

namespace stellar
{
namespace
{

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
        std::mt19937 rng(std::uint32_t(seed) * 9973u + 7u);
        auto spec = seed % 3 == 0   ? func::matmulSpec()
                    : seed % 3 == 1 ? func::matAddSpec()
                                    : func::mergeSpec();
        Scenario s{std::move(spec), {}, {}};
        std::uniform_int_distribution<std::int64_t> bound(2, 5);
        for (int i = 0; i < s.spec.numIndices(); i++)
            s.bounds.push_back(bound(rng));
        if (seed % 3 == 0 && seed % 2 == 1) {
            // CSR B on matmul: pruned conns change both the wire set
            // and the regfile floor, so the model must track them.
            s.sparsity.add(sparsity::skipWhenZero(
                    1, s.spec.tensorIdByName("B"),
                    {func::makeIndexExpr(2), func::makeIndexExpr(1)}));
        }
        result.push_back(std::move(s));
    }
    return result;
}

accel::DseOptions
baseOptions(const Scenario &scenario)
{
    accel::DseOptions options;
    options.threads = 1;
    options.enumerate.threads = 1;
    options.enumerate.limit = 512;
    options.sparsity = scenario.sparsity;
    return options;
}

void
expectSameCandidates(const std::vector<accel::DseCandidate> &a,
                     const std::vector<accel::DseCandidate> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].enumIndex, b[i].enumIndex) << "rank " << i;
        EXPECT_EQ(a[i].transform.matrix(), b[i].transform.matrix())
                << "rank " << i;
        EXPECT_EQ(a[i].pes, b[i].pes) << "rank " << i;
        EXPECT_EQ(a[i].wires, b[i].wires) << "rank " << i;
        EXPECT_EQ(a[i].wireLength, b[i].wireLength) << "rank " << i;
        EXPECT_EQ(a[i].scheduleLength, b[i].scheduleLength) << "rank " << i;
        EXPECT_EQ(a[i].fmaxMhz, b[i].fmaxMhz) << "rank " << i;
        EXPECT_EQ(a[i].areaUm2, b[i].areaUm2) << "rank " << i;
        EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    }
}

TEST(AnalyticCost, ScoreIsBitIdenticalToElaboratedScore)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    for (const auto &scenario : scenarios(12)) {
        auto options = baseOptions(scenario);
        options.topK = std::size_t(-1) / 2; // keep every candidate
        accel::DseStats stats;
        auto full = accel::exploreDataflows(scenario.spec, scenario.bounds,
                                            options, area_params,
                                            timing_params, &stats);
        ASSERT_GT(full.size(), 0u);
        EXPECT_EQ(stats.failed, 0u);

        accel::AnalyticCostModel model(scenario.spec, scenario.bounds,
                                       scenario.sparsity,
                                       options.dataWidth, options.macBits,
                                       area_params, timing_params);
        auto transforms = testkit::collectTransforms(scenario.spec,
                                                     options.enumerate);
        for (const auto &candidate : full) {
            auto analytic =
                    model.score(transforms[candidate.enumIndex]);
            EXPECT_FALSE(analytic.saturated);
            EXPECT_EQ(analytic.pes, candidate.pes);
            EXPECT_EQ(analytic.wires, candidate.wires);
            EXPECT_EQ(analytic.wireLength, candidate.wireLength);
            EXPECT_EQ(analytic.scheduleLength, candidate.scheduleLength);
            EXPECT_EQ(analytic.fmaxMhz, candidate.fmaxMhz);
            EXPECT_EQ(analytic.areaUm2, candidate.areaUm2);
            EXPECT_EQ(analytic.score, candidate.score);
        }
    }
}

TEST(AnalyticTier, TopKEqualsFullExplorationTopK)
{
    constexpr std::size_t kKeep = 16;
    model::AreaParams area_params;
    model::TimingParams timing_params;
    for (const auto &scenario : scenarios(12)) {
        auto options = baseOptions(scenario);
        options.topK = kKeep;
        accel::DseStats full_stats;
        auto full = accel::exploreDataflows(scenario.spec, scenario.bounds,
                                            options, area_params,
                                            timing_params, &full_stats);
        ASSERT_GT(full.size(), 0u);

        options.analyticTopK = kKeep;
        accel::DseStats tier_stats;
        auto tiered = accel::exploreDataflows(
                scenario.spec, scenario.bounds, options, area_params,
                timing_params, &tier_stats);

        // Exact analytic scores make the filter lossless: the tiered
        // ranking IS the full ranking, so in particular the top-K
        // contains the full-elaboration winner.
        expectSameCandidates(full, tiered);
        ASSERT_GT(tiered.size(), 0u);
        EXPECT_EQ(tiered.front().enumIndex, full.front().enumIndex);
        EXPECT_EQ(tiered.front().score, full.front().score);

        // Counter invariant with the analytic tier active.
        EXPECT_EQ(tier_stats.evaluated + tier_stats.prunedEarly +
                          tier_stats.analyticFiltered + tier_stats.failed,
                  tier_stats.enumerated);
        if (full_stats.enumerated > kKeep) {
            EXPECT_EQ(tier_stats.analyticRanked, tier_stats.enumerated);
            EXPECT_EQ(tier_stats.analyticFiltered,
                      tier_stats.enumerated - kKeep);
            EXPECT_EQ(tier_stats.evaluated + tier_stats.failed, kKeep);
        } else {
            EXPECT_EQ(tier_stats.analyticRanked, 0u);
            EXPECT_EQ(tier_stats.analyticFiltered, 0u);
        }
    }
}

TEST(AnalyticTier, RankingsAreByteIdenticalAcrossThreadsAndShards)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto spec = func::matmulSpec();
    IntVec bounds{6, 6, 6};

    std::vector<accel::DseCandidate> baseline;
    accel::DseStats baseline_stats;
    for (std::size_t eval_threads : {1u, 2u, 4u}) {
        for (std::size_t enum_threads : {1u, 2u, 4u}) {
            accel::DseOptions options;
            options.threads = eval_threads;
            options.enumerate.threads = enum_threads;
            options.analyticTopK = 16;
            options.topK = 16;
            accel::DseStats stats;
            auto candidates = accel::exploreDataflows(
                    spec, bounds, options, area_params, timing_params,
                    &stats);
            if (baseline.empty()) {
                baseline = candidates;
                baseline_stats = stats;
                ASSERT_EQ(candidates.size(), 16u);
                continue;
            }
            expectSameCandidates(baseline, candidates);
            EXPECT_EQ(stats.enumerated, baseline_stats.enumerated);
            EXPECT_EQ(stats.analyticRanked, baseline_stats.analyticRanked);
            EXPECT_EQ(stats.analyticFiltered,
                      baseline_stats.analyticFiltered);
            EXPECT_EQ(stats.evaluated, baseline_stats.evaluated);
            EXPECT_EQ(stats.failed, baseline_stats.failed);
        }
    }
}

TEST(AnalyticCost, ExtremeCoefficientsSaturateInsteadOfLying)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::AnalyticCostModel model(spec, bounds, {}, 8, 8, area_params,
                                   timing_params);

    const std::int64_t huge = std::int64_t(1) << 62;
    dataflow::SpaceTimeTransform saturated_transform(
            IntMatrix{{1, 0, 0}, {0, 1, 0}, {huge, 0, 1}}, "saturated");
    auto clamped = model.score(saturated_transform);
    EXPECT_TRUE(clamped.saturated);

    dataflow::SpaceTimeTransform benign(
            IntMatrix{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, "benign");
    auto exact = model.score(benign);
    EXPECT_FALSE(exact.saturated);
    EXPECT_EQ(exact.pes, 16);
    EXPECT_EQ(exact.scheduleLength, 4);
}

// The 2^62-coefficient regression: a saturated probe's proxy is
// double(INT64_MAX) x PEs = 2^63 x PEs, and a legitimate design whose
// schedule length rounds to 2^63 in double produces the *equal* value.
// A (score, index) ordering then keeps whichever enumerated first —
// possibly the saturated one. AnalyticTopK's (saturated, score, index)
// ordering must keep the honest design regardless of index order.
TEST(AnalyticTopK, SaturatedEntriesRankAfterEqualScoredHonestOnes)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    core::IterationSpace probe_space = core::elaborate(spec, bounds);

    const std::int64_t huge = std::int64_t(1) << 62;
    // Time-row reach 3 x 2^62 overflows: scheduleLength clamps to
    // INT64_MAX with the saturated flag set. PEs = 16.
    dataflow::SpaceTimeTransform saturated_transform(
            IntMatrix{{1, 0, 0}, {0, 1, 0}, {huge, 0, 1}}, "saturated");
    // Largest representable unsaturated schedule: 3c + 4 = INT64_MAX
    // exactly, which rounds to the same double(2^63). PEs = 16, so the
    // values compare equal and only the flag separates them.
    const std::int64_t c =
            (std::numeric_limits<std::int64_t>::max() - 4) / 3;
    ASSERT_EQ(3 * c + 4, std::numeric_limits<std::int64_t>::max());
    dataflow::SpaceTimeTransform honest(
            IntMatrix{{1, 0, 0}, {0, 1, 0}, {c, 0, 1}}, "honest");

    auto clamped = accel::analyticProbe(saturated_transform, bounds,
                                        probe_space);
    auto exact = accel::analyticProbe(honest, bounds, probe_space);
    ASSERT_TRUE(clamped.saturated);
    ASSERT_FALSE(exact.saturated);
    // The trap that motivates the flag-first ordering: the values
    // really do compare equal in double.
    const double clamped_score =
            double(clamped.scheduleLength) * double(clamped.pes);
    const double exact_score =
            double(exact.scheduleLength) * double(exact.pes);
    ASSERT_EQ(clamped_score, exact_score);

    // The saturated entry enumerates first, so an index tie-break
    // alone would keep it.
    using TopK = accel::AnalyticTopK<std::string>;
    const TopK::Key saturated_key{true, clamped_score, 0};
    const TopK::Key honest_key{false, exact_score, 1};
    EXPECT_TRUE(TopK::better(honest_key, saturated_key));
    EXPECT_FALSE(TopK::better(saturated_key, honest_key));

    TopK one(1);
    one.offer(saturated_key, saturated_transform.name());
    one.offer(honest_key, honest.name());
    EXPECT_EQ(one.offered(), 2u);
    auto kept = one.takeInIndexOrder();
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].payload, "honest")
            << "top-K kept the saturated candidate";

    // And with room for both, the saturated one still comes along
    // (filtered, not lost) — the ordering only demotes it.
    TopK two(2);
    two.offer(saturated_key, saturated_transform.name());
    two.offer(honest_key, honest.name());
    auto both = two.takeInIndexOrder();
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].payload, "saturated");
    EXPECT_EQ(both[1].payload, "honest");
}

// Honest phase timing: enumerateMs is the front half's wall time and
// analyticMs the time inside the closed-form scoring calls the scan
// workers make, summed over workers. With a serial scan the scoring
// runs inside the front half, so analyticMs <= enumerateMs <= the wall
// time of the whole call.
TEST(AnalyticTier, PhaseTimersSplitTheFrontHalfHonestly)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.threads = 1;
    options.topK = 8;
    options.analyticTopK = 8;
    options.enumerate.maxHopLength = 3;
    options.enumerate.minCoeff = -2;
    options.enumerate.maxCoeff = 2;
    options.enumerate.limit = 2000;
    options.enumerate.threads = 1;
    accel::DseStats stats;
    auto start = std::chrono::steady_clock::now();
    auto candidates = accel::exploreDataflows(
            func::matmulSpec(), {4, 4, 4}, options, area_params,
            timing_params, &stats);
    double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    ASSERT_FALSE(candidates.empty());
    ASSERT_GT(stats.analyticRanked, options.analyticTopK);
    EXPECT_GT(stats.analyticMs, 0.0);
    EXPECT_LE(stats.analyticMs, stats.enumerateMs);
    EXPECT_LE(stats.enumerateMs, wall_ms);
    EXPECT_GT(stats.analyticCandidatesPerSecond(), 0.0);
}

// The front half's cost model walks the iteration space once, charged to
// the watchdog of the thread that builds the scorer; the scan workers
// score with clones that walk nothing, so a step budget sees the same
// charge at any thread count.
TEST(AnalyticTier, FrontHalfChargesTheCallersWatchdogAtAnyThreadCount)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.analyticTopK = 8;
    options.enumerate.maxHopLength = 3;
    options.enumerate.minCoeff = -2;
    options.enumerate.maxCoeff = 2;
    const IntVec bounds = {4, 4, 4};
    std::int64_t serial_steps = -1;
    for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        options.enumerate.threads = threads;
        util::WatchdogScope scope("front", std::int64_t(1) << 40);
        std::atomic<std::int64_t> score_nanos{0};
        accel::FrontHalfScorer scorer(func::matmulSpec(), bounds, options,
                                      area_params, timing_params,
                                      score_nanos);
        dataflow::SurvivorStream stream(func::matmulSpec(),
                                        options.enumerate, &scorer);
        dataflow::Survivor survivor;
        std::size_t scored = 0;
        while (stream.next(survivor))
            scored += survivor.verdict.score > 0.0;
        EXPECT_GT(scored, 0u);
        const std::int64_t steps = scope.watchdog().stepsExecuted();
        EXPECT_GE(steps, 4 * 4 * 4);
        if (serial_steps < 0)
            serial_steps = steps;
        EXPECT_EQ(steps, serial_steps);
    }
}

} // namespace
} // namespace stellar
