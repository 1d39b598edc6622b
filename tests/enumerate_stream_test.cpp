/**
 * @file
 * The enumeration contract, pinned differentially: the streaming,
 * orbit-canonical coefficient scan must be byte-identical — matrices,
 * signatures, `enumerated-N` names, dedup winners, stats — to the
 * pre-streaming oracle's serial scan at every thread count, for every
 * `limit` (the old sharded scan's small-limit wart), and with orbit
 * skipping on or off. On top sits the tiered-DSE end-to-end check:
 * streamed top-K == materialized top-K == full-elaboration top-K with
 * the extended counter invariant. The scan's accounting is pinned against
 * a decode-everything oracle that walks every code of every shard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "accel/analytic.hpp"
#include "accel/dse.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "testkit/oracles.hpp"
#include "util/strings.hpp"

namespace stellar
{
namespace
{

struct EnumScenario
{
    func::FunctionalSpec spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    std::string label;
};

/**
 * 12 randomized spec/options combinations. Coefficient ranges are
 * sized per spec so the examine-every-code oracle stays affordable
 * (the conv spec has 16 cells, so only 2-value ranges are usable
 * there), and both symmetric and asymmetric ranges appear — asymmetric
 * ranges exercise the permutation-only canonicalization path.
 */
std::vector<EnumScenario>
enumScenarios()
{
    std::vector<EnumScenario> out;
    for (int seed = 0; seed < 12; seed++) {
        std::mt19937 rng(std::uint32_t(seed) * 2654435761u + 97u);
        EnumScenario s;
        dataflow::EnumerateOptions &options = s.options;
        options.threads = 1;
        switch (seed % 4) {
          case 0: {
            s.spec = func::matmulSpec();
            s.label = "matmul";
            const std::int64_t ranges[][2] = {{-1, 1}, {-2, 2}, {-1, 2}};
            const auto &range = ranges[seed / 4 % 3];
            options.minCoeff = range[0];
            options.maxCoeff = range[1];
            break;
          }
          case 1: {
            s.spec = func::matAddSpec();
            s.label = "matadd";
            const std::int64_t ranges[][2] = {{-3, 3}, {-1, 1}, {-2, 4}};
            const auto &range = ranges[seed / 4 % 3];
            options.minCoeff = range[0];
            options.maxCoeff = range[1];
            break;
          }
          case 2: {
            s.spec = func::convSpec(1 + seed % 2, 2);
            s.label = "conv";
            options.minCoeff = (seed / 4 % 2 == 0) ? -1 : 0;
            options.maxCoeff = options.minCoeff + 1;
            break;
          }
          default: {
            s.spec = func::mergeSpec();
            s.label = "merge";
            options.minCoeff = -2 - seed / 4;
            options.maxCoeff = 2 + seed / 4;
            break;
          }
        }
        options.maxHopLength = 1 + seed % 3;
        options.allowBroadcast = seed % 2 == 0;
        std::uniform_int_distribution<std::size_t> limit_pick(0, 3);
        const std::size_t limits[] = {4096, 7, 64, 1000};
        options.limit = limits[limit_pick(rng)];
        s.label += " coeff [" + std::to_string(options.minCoeff) + "," +
                   std::to_string(options.maxCoeff) + "] hop " +
                   std::to_string(options.maxHopLength) + " limit " +
                   std::to_string(options.limit);
        out.push_back(std::move(s));
    }
    return out;
}

void
expectSameTransforms(const std::vector<dataflow::SpaceTimeTransform> &got,
                     const std::vector<dataflow::SpaceTimeTransform> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].name(), want[i].name()) << "index " << i;
        EXPECT_EQ(got[i].matrix(), want[i].matrix()) << "index " << i;
    }
}

void
expectSameStats(const dataflow::EnumerateStats &got,
                const dataflow::EnumerateStats &want)
{
    EXPECT_EQ(got.codesTotal, want.codesTotal);
    EXPECT_EQ(got.codesExamined, want.codesExamined);
    EXPECT_EQ(got.orbitSkipped, want.orbitSkipped);
    EXPECT_EQ(got.feasibilitySkipped, want.feasibilitySkipped);
    EXPECT_EQ(got.decoded, want.decoded);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.duplicates, want.duplicates);
    EXPECT_EQ(got.yielded, want.yielded);
}

void
expectStatsInvariants(const dataflow::EnumerateStats &stats,
                      std::size_t yielded)
{
    EXPECT_EQ(stats.codesExamined,
              stats.orbitSkipped + stats.feasibilitySkipped + stats.decoded);
    EXPECT_EQ(stats.decoded,
              stats.rejected + stats.duplicates + stats.yielded);
    EXPECT_GE(stats.feasibilitySkipped, 0);
    EXPECT_EQ(std::size_t(stats.yielded), yielded);
    EXPECT_LE(stats.codesExamined, stats.codesTotal);
}

// The streaming scan (any thread count, orbit skipping on or off) must
// reproduce the pre-streaming oracle's serial scan byte for byte:
// matrices, names, dedup winners, and per-item signatures.
TEST(EnumerateStream, MatchesOracleByteForByteAtEveryThreadCount)
{
    for (const auto &scenario : enumScenarios()) {
        SCOPED_TRACE(scenario.label);
        auto oracle_options = scenario.options;
        oracle_options.threads = 1;
        auto oracle = testkit::enumerateTransformsOracle(scenario.spec,
                                                         oracle_options);

        dataflow::EnumerateStats serial_stats;
        for (std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            for (bool orbit : {true, false}) {
                auto options = scenario.options;
                options.threads = threads;
                options.orbitCanonical = orbit;
                dataflow::EnumerateStats stats;
                auto streamed = testkit::collectTransforms(scenario.spec,
                                                           options, &stats);
                expectSameTransforms(streamed, oracle);
                expectStatsInvariants(stats, streamed.size());
                if (!orbit) {
                    EXPECT_EQ(stats.orbitSkipped, 0);
                } else if (threads == 1) {
                    serial_stats = stats;
                } else {
                    expectSameStats(stats, serial_stats);
                }
            }
        }
    }
}

/**
 * Orbit canonicality from its definition, independent of the scan's
 * closed-form count: a code is canonical when it is the smallest member
 * of its orbit under permutations of the spatial rows and, on a
 * symmetric range, their sign flips. Row r (0 = least significant, the
 * time row n - 1 most significant) is digit block r of base
 * B = range^n, and a flip maps its block b to B - 1 - b. The smallest
 * member therefore flips every block to min(b, B - 1 - b) and sorts the
 * blocks ascending from the most significant spatial row down.
 */
bool
orbitMinimal(const func::FunctionalSpec &spec,
             const dataflow::EnumerateOptions &options, std::int64_t code)
{
    if (!options.orbitCanonical)
        return true;
    const int n = spec.numIndices();
    const std::int64_t range = options.maxCoeff - options.minCoeff + 1;
    const bool symmetric = options.minCoeff == -options.maxCoeff;
    std::int64_t B = 1;
    for (int c = 0; c < n; c++)
        B *= range;
    std::vector<std::int64_t> blocks; // most significant spatial row first
    for (int r = 0; r < n - 1; r++) {
        blocks.insert(blocks.begin(), code % B);
        code /= B;
    }
    auto smallest = blocks;
    for (auto &b : smallest)
        if (symmetric)
            b = std::min(b, B - 1 - b);
    std::sort(smallest.begin(), smallest.end());
    return smallest == blocks;
}

/**
 * The decode-everything accounting oracle: walk every code of [lo, hi)
 * in order, skip the non-canonical ones (orbitMinimal), decode and
 * filter the rest,
 * dedup by signature, and stop at the `limit`-th yield — the scan as it
 * was before it jumped over infeasible codes. Its `decoded` and
 * `rejected` include the codes the jump skips.
 */
dataflow::EnumerateStats
accountingOracle(const func::FunctionalSpec &spec,
                 const dataflow::EnumerateOptions &options, std::int64_t lo,
                 std::int64_t hi)
{
    dataflow::detail::CandidateDecoder decoder(spec, options);
    dataflow::EnumerateStats stats;
    stats.codesTotal = decoder.codesTotal();
    std::set<std::vector<std::int64_t>> seen;
    for (std::int64_t code = lo; code < hi; code++) {
        stats.codesExamined++;
        if (!orbitMinimal(spec, options, code)) {
            stats.orbitSkipped++;
            continue;
        }
        stats.decoded++;
        if (!decoder.decode(code)) {
            stats.rejected++;
            continue;
        }
        if (!seen.insert(decoder.signature()).second) {
            stats.duplicates++;
            continue;
        }
        stats.yielded++;
        if (std::uint64_t(stats.yielded) >= std::uint64_t(options.limit))
            break;
    }
    return stats;
}

// The jumping scan decodes only canonical codes that pass causality and
// the hop limit; everything else it counts in closed form. Every shard
// of every split, at every thread count and with orbit skipping on or
// off, must account for exactly what the decode-everything walk sees.
TEST(EnumerateStream, CountersMatchTheDecodeEverythingOracle)
{
    for (const auto &scenario : enumScenarios()) {
        SCOPED_TRACE(scenario.label);
        for (bool orbit : {true, false}) {
            for (std::int64_t shards : {1, 2, 4, 7}) {
                for (std::int64_t index = 0; index < shards; index++) {
                    SCOPED_TRACE("orbit " + std::to_string(orbit) +
                                 " shard " + std::to_string(index) + "/" +
                                 std::to_string(shards));
                    auto options = scenario.options;
                    options.orbitCanonical = orbit;
                    options.shardIndex = index;
                    options.shardCount = shards;
                    dataflow::detail::CandidateDecoder decoder(scenario.spec,
                                                               options);
                    const auto [lo, hi] = decoder.shardRange(index, shards);
                    auto want = accountingOracle(scenario.spec, options, lo,
                                                 hi);
                    for (std::size_t threads : {1u, 2u, 4u}) {
                        SCOPED_TRACE("threads " + std::to_string(threads));
                        options.threads = threads;
                        dataflow::EnumerateStats got;
                        auto streamed = testkit::collectTransforms(
                                scenario.spec, options, &got);
                        expectStatsInvariants(got, streamed.size());
                        EXPECT_EQ(got.codesTotal, want.codesTotal);
                        EXPECT_EQ(got.codesExamined, want.codesExamined);
                        EXPECT_EQ(got.orbitSkipped, want.orbitSkipped);
                        EXPECT_EQ(got.duplicates, want.duplicates);
                        EXPECT_EQ(got.yielded, want.yielded);
                        EXPECT_EQ(got.feasibilitySkipped + got.decoded,
                                  want.decoded);
                        EXPECT_EQ(got.feasibilitySkipped + got.rejected,
                                  want.rejected);
                    }
                }
            }
        }
    }
}

// Shard and chunk edges fall anywhere inside a code, so the jump must
// be exact from any starting digits, not just the ones a scan reaches by
// counting up. Prime shard counts over small 3- and 4-iterator spaces put
// the shard edges at arbitrary feasible tuples (and the chunk edges
// inside them at arbitrary digit tuples), with the hop limit tight or
// slack.
TEST(EnumerateStream, ShardEdgesAnywhereAccountExactly)
{
    struct Space
    {
        func::FunctionalSpec spec;
        std::int64_t minCoeff;
        std::int64_t maxCoeff;
        std::int64_t hop;
    };
    std::vector<Space> spaces;
    for (std::int64_t hop : {1, 8}) {
        spaces.push_back({func::convSpec(2, 2), 0, 1, hop});
        spaces.push_back({func::convSpec(2, 2), -1, 0, hop});
        spaces.push_back({func::matmulSpec(), -1, 1, hop});
        spaces.push_back({func::matmulSpec(), -1, 2, hop});
    }
    for (const auto &space : spaces) {
        for (std::int64_t shards : {3, 7, 13, 23}) {
            for (std::int64_t index = 0; index < shards; index++) {
                SCOPED_TRACE("coeff [" + std::to_string(space.minCoeff) +
                             "," + std::to_string(space.maxCoeff) +
                             "] hop " + std::to_string(space.hop) +
                             " shard " + std::to_string(index) + "/" +
                             std::to_string(shards));
                dataflow::EnumerateOptions options;
                options.minCoeff = space.minCoeff;
                options.maxCoeff = space.maxCoeff;
                options.maxHopLength = space.hop;
                options.limit = std::size_t(1) << 40;
                options.threads = 1;
                options.shardIndex = index;
                options.shardCount = shards;
                dataflow::detail::CandidateDecoder decoder(space.spec,
                                                           options);
                const auto [lo, hi] = decoder.shardRange(index, shards);
                auto want = accountingOracle(space.spec, options, lo, hi);
                dataflow::EnumerateStats got;
                auto streamed = testkit::collectTransforms(space.spec,
                                                           options, &got);
                expectStatsInvariants(got, streamed.size());
                EXPECT_EQ(got.orbitSkipped, want.orbitSkipped);
                EXPECT_EQ(got.duplicates, want.duplicates);
                EXPECT_EQ(got.yielded, want.yielded);
                EXPECT_EQ(got.feasibilitySkipped + got.decoded,
                          want.decoded);
                EXPECT_EQ(got.feasibilitySkipped + got.rejected,
                          want.rejected);
            }
        }
    }
}

// canonicalBelow's closed form (a binomial count per time row plus a
// hockey-stick sum per digit) against a running count of orbit-minimal
// codes, at every code of small 2-, 3- and 4-iterator spaces (1, 2 and
// 3 spatial rows; symmetric ranges add sign flips to the permutations).
// Spaces too large to walk are walked over their first time row, which
// fixes the per-row count, and over a window of their last time row.
TEST(EnumerateStream, CanonicalBelowMatchesABruteForceCount)
{
    struct Space
    {
        func::FunctionalSpec spec;
        std::int64_t minCoeff;
        std::int64_t maxCoeff;
    };
    const std::vector<Space> spaces = {
            {func::matAddSpec(), -3, 3},   {func::matAddSpec(), 0, 2},
            {func::matmulSpec(), -1, 1},   {func::matmulSpec(), -1, 2},
            {func::matmulSpec(), -2, 2},   {func::convSpec(2, 2), 0, 1},
            {func::convSpec(2, 2), -1, 1},
    };
    constexpr std::int64_t kWindow = 300000;
    for (const auto &space : spaces) {
        SCOPED_TRACE(space.spec.name() + " coeff [" +
                     std::to_string(space.minCoeff) + "," +
                     std::to_string(space.maxCoeff) + "]");
        dataflow::EnumerateOptions options;
        options.minCoeff = space.minCoeff;
        options.maxCoeff = space.maxCoeff;
        dataflow::detail::CandidateDecoder decoder(space.spec, options);
        const int n = space.spec.numIndices();
        const std::int64_t total = decoder.codesTotal();
        std::int64_t B = 1;
        for (int c = 0; c < n; c++)
            B *= options.maxCoeff - options.minCoeff + 1;
        const std::int64_t row_span = total / B;
        // Walk [lo, hi) from a known count at lo; returns the count at hi.
        auto walk = [&](std::int64_t lo, std::int64_t hi,
                        std::int64_t count) {
            for (std::int64_t code = lo; code <= hi; code++) {
                if (decoder.canonicalBelow(code) != count) {
                    ADD_FAILURE() << "canonicalBelow(" << code << ") = "
                                  << decoder.canonicalBelow(code)
                                  << ", brute force " << count;
                    return count;
                }
                if (code == hi)
                    break;
                const bool minimal = orbitMinimal(space.spec, options, code);
                if (decoder.canonical(code) != minimal) {
                    ADD_FAILURE() << "canonical(" << code << ") wrong";
                    return count;
                }
                count += minimal;
            }
            return count;
        };
        if (total <= kWindow) {
            walk(0, total, 0);
            continue;
        }
        ASSERT_LE(row_span, kWindow * 2);
        const std::int64_t per_row = walk(0, row_span, 0);
        EXPECT_GT(per_row, 0);
        const std::int64_t last = (B - 1) * row_span;
        walk(last, std::min(total, last + kWindow), (B - 1) * per_row);
    }
}

// A 1-iterator spec has one code per time row, so a coefficient range
// of ~1.9e9 values of which only c = 0 is causal is one long acausal
// run. The balanced split gives the whole run to shard 0 and the one
// feasible code to the last shard; every shard between is empty. The
// scan walks only the feasible index, so shard 0 is one chunk without a
// code to decode (a walk over the run code by code would take hours).
// Shard 0 is too long for the decode-everything walk, so it is held to
// the counts every code of it has by construction (a negative
// coefficient fails the merge recurrence's +1 step), and the oracle
// walks windows at both ends of it; the other shards meet the oracle.
TEST(EnumerateStream, AcausalRunsAreWalkedOnlyWithinTheChunk)
{
    auto spec = func::mergeSpec();
    dataflow::EnumerateOptions options;
    options.minCoeff = -1900000000;
    options.maxCoeff = 0;
    options.maxHopLength = 1;
    options.allowBroadcast = true;
    options.shardCount = 2000;
    dataflow::detail::CandidateDecoder decoder(spec, options);
    const std::int64_t total = decoder.codesTotal();
    ASSERT_EQ(decoder.feasibleBelow(total), 1);
    ASSERT_EQ(decoder.feasibleBelow(total - 1), 0);
    for (std::int64_t index : {0, 1, 1998, 1999}) {
        options.shardIndex = index;
        const auto [lo, hi] = decoder.shardRange(index, options.shardCount);
        EXPECT_EQ(lo, index == 0 ? 0 : total - 1);
        EXPECT_EQ(hi, index == 1999 ? total : total - 1);
        dataflow::EnumerateStats want;
        if (index == 0) {
            constexpr std::int64_t kWindow = 1000000;
            for (std::int64_t at : {lo, hi - kWindow}) {
                auto window =
                        accountingOracle(spec, options, at, at + kWindow);
                EXPECT_EQ(window.rejected, kWindow);
                EXPECT_EQ(window.yielded, 0);
            }
            want.codesExamined = hi - lo;
            want.decoded = hi - lo; // the oracle's: canonical codes
            want.rejected = hi - lo;
        } else {
            want = accountingOracle(spec, options, lo, hi);
        }
        for (std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("shard " + std::to_string(index) + " threads " +
                         std::to_string(threads));
            options.threads = threads;
            dataflow::EnumerateStats got;
            std::size_t yielded = 0;
            dataflow::forEachTransform(
                    spec, options,
                    [&](const dataflow::EnumeratedTransform &) {
                        yielded++;
                        return true;
                    },
                    &got);
            expectStatsInvariants(got, yielded);
            EXPECT_EQ(got.codesExamined, want.codesExamined);
            EXPECT_EQ(got.yielded, want.yielded);
            EXPECT_EQ(got.feasibilitySkipped + got.decoded, want.decoded);
            EXPECT_EQ(got.feasibilitySkipped + got.rejected, want.rejected);
            EXPECT_EQ(got.decoded, index == 1999 ? 1 : 0);
        }
    }
}

/**
 * Feasibility from its definition, independent of the scan's digit
 * tables: decode the code's cells and take, over the recurrences, the
 * least time step (the time row's dot product with the dependence) and
 * the largest hop count (the spatial rows' absolute dot products,
 * summed). A code is causal when that step is non-negative (positive
 * without broadcast) and within the hop limit when that count is.
 * Invertibility is not part of it: the scan decodes singular codes and
 * then rejects them.
 */
struct CodeFacts
{
    std::int64_t minStep = std::numeric_limits<std::int64_t>::max();
    std::int64_t maxHops = 0;
};

CodeFacts
codeFacts(const std::vector<func::Recurrence> &recurrences, int n,
          const dataflow::EnumerateOptions &options, std::int64_t code)
{
    const std::int64_t range = options.maxCoeff - options.minCoeff + 1;
    std::array<std::int64_t, 16> cells{};
    for (int cell = 0; cell < n * n; cell++) {
        cells[std::size_t(cell)] = options.minCoeff + code % range;
        code /= range;
    }
    CodeFacts facts;
    for (const auto &rec : recurrences) {
        std::int64_t hops = 0;
        for (int r = 0; r < n; r++) {
            std::int64_t v = 0;
            for (int c = 0; c < n; c++)
                v += cells[std::size_t(r * n + c)] * rec.diff[std::size_t(c)];
            if (r == n - 1)
                facts.minStep = std::min(facts.minStep, v);
            else
                hops += v < 0 ? -v : v;
        }
        facts.maxHops = std::max(facts.maxHops, hops);
    }
    return facts;
}

// feasibleBelow's closed form (causal time rows times the per-row tuple
// count, plus the tuples below the code in its own row) against a
// running count of codes that are orbit-minimal and feasible by
// definition, at every code of small 1- to 4-iterator spaces: symmetric
// and asymmetric ranges (the latter canonicalize by permutation only),
// orbit skipping on and off, broadcast on and off, and hop limits 0 to
// 3. Every cut the split makes must land on a feasible code and give
// each shard the same feasible count to within one.
TEST(EnumerateStream, FeasibleBelowMatchesABruteForceCount)
{
    struct Space
    {
        func::FunctionalSpec spec;
        std::int64_t minCoeff;
        std::int64_t maxCoeff;
    };
    const std::vector<Space> spaces = {
            {func::mergeSpec(), -5, 5},    {func::mergeSpec(), -3, -1},
            {func::matAddSpec(), -3, 3},   {func::matAddSpec(), 0, 2},
            {func::matAddSpec(), -2, 4},   {func::matmulSpec(), -1, 1},
            {func::matmulSpec(), -1, 2},   {func::matmulSpec(), -1, 0},
            {func::convSpec(2, 2), 0, 1},  {func::convSpec(2, 2), -1, 0},
    };
    bool saw_empty_space = false;
    for (const auto &space : spaces) {
        for (bool orbit : {true, false}) {
            dataflow::EnumerateOptions base;
            base.minCoeff = space.minCoeff;
            base.maxCoeff = space.maxCoeff;
            base.orbitCanonical = orbit;
            const std::int64_t total =
                    dataflow::detail::CandidateDecoder(space.spec, base)
                            .codesTotal();
            const auto recurrences = space.spec.recurrences();
            std::vector<bool> minimal(static_cast<std::size_t>(total));
            std::vector<CodeFacts> facts(static_cast<std::size_t>(total));
            for (std::int64_t code = 0; code < total; code++) {
                minimal[std::size_t(code)] =
                        orbitMinimal(space.spec, base, code);
                facts[std::size_t(code)] =
                        codeFacts(recurrences, space.spec.numIndices(),
                                  base, code);
            }
            for (bool broadcast : {true, false}) {
                for (std::int64_t hop = 0; hop <= 3; hop++) {
                    SCOPED_TRACE(space.spec.name() + " coeff [" +
                                 std::to_string(space.minCoeff) + "," +
                                 std::to_string(space.maxCoeff) +
                                 "] orbit " + std::to_string(orbit) +
                                 " broadcast " + std::to_string(broadcast) +
                                 " hop " + std::to_string(hop));
                    auto options = base;
                    options.allowBroadcast = broadcast;
                    options.maxHopLength = hop;
                    dataflow::detail::CandidateDecoder decoder(space.spec,
                                                               options);
                    std::vector<bool> feasible(static_cast<std::size_t>(total));
                    std::int64_t count = 0;
                    for (std::int64_t code = 0; code <= total; code++) {
                        if (decoder.feasibleBelow(code) != count) {
                            ADD_FAILURE() << "feasibleBelow(" << code
                                          << ") = "
                                          << decoder.feasibleBelow(code)
                                          << ", brute force " << count;
                            break;
                        }
                        if (code == total)
                            break;
                        const CodeFacts &fact = facts[std::size_t(code)];
                        feasible[std::size_t(code)] =
                                minimal[std::size_t(code)] &&
                                (broadcast ? fact.minStep >= 0
                                           : fact.minStep > 0) &&
                                fact.maxHops <= hop;
                        count += feasible[std::size_t(code)];
                    }
                    saw_empty_space |= count == 0;
                    for (std::int64_t shards : {1, 2, 3, 4, 7, 13, 23}) {
                        std::int64_t next = 0;
                        for (std::int64_t i = 0; i < shards; i++) {
                            const auto [lo, hi] =
                                    decoder.shardRange(i, shards);
                            EXPECT_EQ(lo, next) << i << "/" << shards;
                            next = hi;
                            if (i > 0 && lo < total) {
                                EXPECT_TRUE(feasible[std::size_t(lo)])
                                        << "cut " << i << "/" << shards
                                        << " at code " << lo;
                            }
                            const std::int64_t own =
                                    decoder.feasibleBelow(hi) -
                                    decoder.feasibleBelow(lo);
                            EXPECT_EQ(own, count * (i + 1) / shards -
                                                   count * i / shards)
                                    << i << "/" << shards;
                        }
                        EXPECT_EQ(next, total) << shards << " shards";
                    }
                }
            }
        }
    }
    EXPECT_TRUE(saw_empty_space) << "no space without a feasible code";
}

// The balanced split on real scans: at every shard count, the shards'
// `decoded` counts differ by at most one and sum to the unsharded
// scan's; with more shards than feasible codes, the surplus shards are
// legal empty slices that examine and decode nothing.
TEST(EnumerateStream, ShardsDecodeEqualCountsToWithinOne)
{
    struct Space
    {
        std::int64_t coeff;
        std::int64_t hop;
    };
    for (const Space space : {Space{2, 2}, Space{1, 0}}) {
        dataflow::EnumerateOptions base;
        base.minCoeff = -space.coeff;
        base.maxCoeff = space.coeff;
        base.maxHopLength = space.hop;
        base.limit = std::size_t(1) << 40;
        dataflow::EnumerateStats full;
        dataflow::forEachTransform(
                func::matmulSpec(), base,
                [](const dataflow::EnumeratedTransform &) { return true; },
                &full);
        ASSERT_GT(full.decoded, 0);
        bool saw_empty_shard = false;
        for (std::int64_t shards : {1, 2, 3, 4, 7, 13, 23}) {
            SCOPED_TRACE("coeff " + std::to_string(space.coeff) + " hop " +
                         std::to_string(space.hop) + " shards " +
                         std::to_string(shards));
            std::int64_t least = full.decoded;
            std::int64_t most = 0;
            std::int64_t sum = 0;
            for (std::int64_t i = 0; i < shards; i++) {
                auto options = base;
                options.shardIndex = i;
                options.shardCount = shards;
                dataflow::TransformStream stream(func::matmulSpec(),
                                                 options);
                dataflow::EnumeratedTransform item;
                while (stream.next(item)) {
                }
                const auto &stats = stream.stats();
                const auto [lo, hi] = stream.range();
                EXPECT_EQ(stats.codesExamined, hi - lo);
                if (lo == hi) {
                    saw_empty_shard = true;
                    EXPECT_EQ(stats.decoded, 0);
                    EXPECT_EQ(stats.yielded, 0);
                }
                least = std::min(least, stats.decoded);
                most = std::max(most, stats.decoded);
                sum += stats.decoded;
            }
            EXPECT_LE(most - least, 1);
            EXPECT_EQ(sum, full.decoded);
        }
        EXPECT_EQ(saw_empty_shard, full.decoded < 23);
    }
}

// The standard hop-3 sweep (matmul, coefficients [-3,3]) decodes only a
// sliver of its 5.1M canonical codes. The counters are host-independent,
// so they pin the jump without timing anything.
TEST(EnumerateStream, StandardHop3SweepDecodesOnlyFeasibleCodes)
{
    dataflow::EnumerateOptions options;
    options.minCoeff = -3;
    options.maxCoeff = 3;
    options.maxHopLength = 3;
    options.limit = 30000;
    dataflow::EnumerateStats stats;
    std::size_t yielded = 0;
    dataflow::forEachTransform(
            func::matmulSpec(), options,
            [&](const dataflow::EnumeratedTransform &) {
                yielded++;
                return true;
            },
            &stats);
    expectStatsInvariants(stats, yielded);
    EXPECT_EQ(stats.decoded, 130944);
    EXPECT_EQ(stats.codesExamined, 40353607);
    EXPECT_EQ(stats.orbitSkipped, 35250453);
    EXPECT_EQ(stats.duplicates, 80304);
    EXPECT_EQ(stats.yielded, 25416);
}

// The scan workers score each survivor from its decoded cells. Their
// verdicts must be bit-identical to the prune and score of the
// materialized transform of the same code, for every yield of a hop-3,
// coefficient-[-2,2] sweep at 1 and 4 threads: maxPes-pruned yields
// (never scored), saturated ones (a data width so wide that deep time
// deltas overflow the pipeline-bit sum) and plain ones alike.
TEST(EnumerateStream, WorkerVerdictsMatchTheMaterializedScore)
{
    const auto spec = func::matmulSpec();
    const IntVec bounds = {4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.analyticTopK = 8;
    options.maxPes = 16;
    options.dataWidth = 1 << 29;
    options.enumerate.minCoeff = -2;
    options.enumerate.maxCoeff = 2;
    options.enumerate.maxHopLength = 3;
    options.enumerate.limit = std::size_t(1) << 40;
    accel::AnalyticCostModel model(spec, bounds, options.sparsity,
                                   options.dataWidth, options.macBits,
                                   area_params, timing_params);
    dataflow::detail::CandidateDecoder decoder(spec, options.enumerate);
    for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        options.enumerate.threads = threads;
        std::atomic<std::int64_t> score_nanos{0};
        accel::FrontHalfScorer scorer(spec, bounds, options, area_params,
                                      timing_params, score_nanos);
        dataflow::SurvivorStream stream(spec, options.enumerate, &scorer);
        dataflow::Survivor survivor;
        std::size_t pruned = 0, saturated = 0, plain = 0;
        while (stream.next(survivor)) {
            SCOPED_TRACE("code " + std::to_string(survivor.code));
            const auto transform =
                    decoder.transform(survivor.code, survivor.index);
            const dataflow::Verdict &verdict = survivor.verdict;
            ASSERT_EQ(verdict.pruned, accel::analyticPeCount(transform,
                                                             bounds) >
                                              options.maxPes);
            if (verdict.pruned) {
                EXPECT_FALSE(verdict.saturated);
                EXPECT_EQ(verdict.score, 0.0);
                pruned++;
                continue;
            }
            const auto want = model.score(transform);
            ASSERT_EQ(verdict.saturated, want.saturated);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(verdict.score),
                      std::bit_cast<std::uint64_t>(want.score));
            (want.saturated ? saturated : plain)++;
        }
        EXPECT_GT(pruned, 0u);
        EXPECT_GT(saturated, 0u);
        EXPECT_GT(plain, 0u);
        EXPECT_GT(score_nanos.load(), 0);
    }
}

/** One yield of the chunk-schedule oracle, with the serial stats
 *  through its code. */
struct OracleYield
{
    std::int64_t code = 0;
    IntMatrix matrix;
    std::vector<std::int64_t> signature;
    dataflow::EnumerateStats through;
};

/**
 * The stream's serial semantics written out plainly: walk every code of
 * [lo, hi) in order, skip non-canonical codes and codes that fail
 * causality or the hop limit by definition (codeFacts), decode the
 * rest, dedup by signature, and snapshot the counters at each yield;
 * `stats` receives the counters of the whole range. No index, chunk or
 * thread is involved.
 */
std::vector<OracleYield>
scheduleOracle(const func::FunctionalSpec &spec,
               const dataflow::EnumerateOptions &options, std::int64_t lo,
               std::int64_t hi, dataflow::EnumerateStats &stats)
{
    dataflow::detail::CandidateDecoder decoder(spec, options);
    const auto recurrences = spec.recurrences();
    std::set<std::vector<std::int64_t>> seen;
    std::vector<OracleYield> out;
    stats = {};
    stats.codesTotal = decoder.codesTotal();
    for (std::int64_t code = lo; code < hi; code++) {
        stats.codesExamined++;
        if (!orbitMinimal(spec, options, code)) {
            stats.orbitSkipped++;
            continue;
        }
        const CodeFacts facts = codeFacts(recurrences, spec.numIndices(),
                                          options, code);
        if (facts.minStep < 0 ||
            (facts.minStep == 0 && !options.allowBroadcast) ||
            facts.maxHops > options.maxHopLength) {
            stats.feasibilitySkipped++;
            continue;
        }
        stats.decoded++;
        if (!decoder.decode(code)) {
            stats.rejected++;
            continue;
        }
        if (!seen.insert(decoder.signature()).second) {
            stats.duplicates++;
            continue;
        }
        stats.yielded++;
        out.push_back({code, decoder.transform(code, out.size()).matrix(),
                       decoder.signature(), stats});
    }
    return out;
}

// The fixed chunk schedule: chunk i of a scan holds 256 * 2^i feasible
// codes, capped at 2048 (the last chunk the remainder), its chunks tile
// the scanned range, and the stream — matrices, names, signatures,
// `*After` snapshots and stats — is byte-identical to a plain serial
// walk at 1, 2, 3, 4 and 8 threads, unsharded and sharded, with `limit`
// one short of, at, and one past a chunk edge's yield count, and
// unlimited.
TEST(EnumerateStream, ChunkScheduleTilesTheRangeAtFixedFeasibleCounts)
{
    const auto spec = func::matmulSpec();
    dataflow::EnumerateOptions base;
    base.minCoeff = -2;
    base.maxCoeff = 2;
    base.maxHopLength = 3;
    base.limit = std::size_t(1) << 40;
    for (std::int64_t shards : {0, 3}) {
        for (std::int64_t index = 0; index < std::max<std::int64_t>(1, shards);
             index++) {
            SCOPED_TRACE("shard " + std::to_string(index) + "/" +
                         std::to_string(shards));
            auto options = base;
            options.shardIndex = index;
            options.shardCount = shards;
            dataflow::detail::CandidateDecoder decoder(spec, options);
            const auto [lo, hi] = shards == 0
                                          ? std::pair<std::int64_t,
                                                      std::int64_t>(
                                                    0, decoder.codesTotal())
                                          : decoder.shardRange(index, shards);

            std::int64_t edge = lo;
            std::int64_t size = 256;
            std::size_t chunks = 0;
            while (auto chunk = decoder.chunk(chunks)) {
                EXPECT_EQ(chunk->first, edge) << "chunk " << chunks;
                const std::int64_t feasible =
                        decoder.feasibleBelow(chunk->second) -
                        decoder.feasibleBelow(chunk->first);
                if (chunk->second == hi)
                    EXPECT_LE(feasible, size) << "last chunk " << chunks;
                else
                    EXPECT_EQ(feasible, size) << "chunk " << chunks;
                edge = chunk->second;
                size = std::min<std::int64_t>(size * 2, 2048);
                chunks++;
            }
            EXPECT_EQ(edge, hi);
            EXPECT_GE(chunks, 5u); // the schedule reaches its cap

            // The limits end at the last yield of the first chunk that
            // yields at least two (a scan's first chunks may hold only
            // singular codes), one before it, and one into the next.
            dataflow::EnumerateStats all_stats;
            const auto all = scheduleOracle(spec, options, lo, hi,
                                            all_stats);
            std::size_t edge_yields = 0;
            for (std::size_t i = 0; edge_yields < 2 && decoder.chunk(i);
                 i++) {
                const std::int64_t end = decoder.chunk(i)->second;
                edge_yields = std::size_t(std::count_if(
                        all.begin(), all.end(),
                        [&](const OracleYield &y) { return y.code < end; }));
            }
            ASSERT_GE(edge_yields, 2u);
            ASSERT_LT(edge_yields, all.size());
            for (std::size_t limit : {edge_yields - 1, edge_yields,
                                      edge_yields + 1, base.limit}) {
                const std::size_t kept = std::min(limit, all.size());
                const auto &want_stats =
                        kept < all.size() ? all[kept - 1].through
                                          : all_stats;
                for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
                    SCOPED_TRACE("limit " + std::to_string(limit) +
                                 " threads " + std::to_string(threads));
                    options.limit = limit;
                    options.threads = threads;
                    dataflow::TransformStream stream(spec, options);
                    dataflow::EnumeratedTransform item;
                    std::size_t count = 0;
                    while (stream.next(item)) {
                        ASSERT_LT(count, kept);
                        const OracleYield &want = all[count];
                        EXPECT_EQ(item.code, want.code);
                        EXPECT_EQ(item.index, count);
                        EXPECT_EQ(item.transform.name(),
                                  "enumerated-" + std::to_string(count));
                        EXPECT_EQ(item.transform.matrix(), want.matrix);
                        EXPECT_EQ(item.signature, want.signature);
                        EXPECT_EQ(item.examinedAfter,
                                  want.through.codesExamined);
                        EXPECT_EQ(item.decodedAfter, want.through.decoded);
                        EXPECT_EQ(item.rejectedAfter,
                                  want.through.rejected);
                        EXPECT_EQ(item.duplicatesAfter,
                                  want.through.duplicates);
                        count++;
                    }
                    EXPECT_EQ(count, kept);
                    expectSameStats(stream.stats(), want_stats);
                }
            }
        }
    }
}

// The pull API itself: items arrive in code order with consistent
// indices, names, and signatures, and every yielded item's signature
// matches an independent re-decode of its code.
TEST(EnumerateStream, PullStreamYieldsConsistentItems)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    options.maxCoeff = 2;
    options.minCoeff = -2;
    options.threads = 2;
    dataflow::TransformStream stream(spec, options);
    dataflow::detail::CandidateDecoder decoder(spec, options);
    dataflow::EnumeratedTransform item;
    std::int64_t last_code = -1;
    std::size_t count = 0;
    while (stream.next(item)) {
        EXPECT_GT(item.code, last_code);
        last_code = item.code;
        EXPECT_EQ(item.index, count);
        EXPECT_EQ(item.transform.name(),
                  "enumerated-" + std::to_string(count));
        ASSERT_TRUE(decoder.decode(item.code));
        EXPECT_TRUE(std::ranges::equal(decoder.cells(),
                                       item.transform.matrix().cells()));
        EXPECT_EQ(decoder.signature(), item.signature);
        EXPECT_TRUE(decoder.canonical(item.code));
        count++;
    }
    EXPECT_GT(count, 0u);
    expectStatsInvariants(stream.stats(), count);
    EXPECT_EQ(stream.stats().codesExamined, stream.stats().codesTotal);
}

// Aborting via the sink finalizes stats at the last yielded code.
TEST(EnumerateStream, SinkAbortFinalizesStats)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    options.threads = 2;
    dataflow::EnumerateStats stats;
    std::size_t seen = 0;
    dataflow::forEachTransform(
            spec, options,
            [&](const dataflow::EnumeratedTransform &) {
                return ++seen < 5;
            },
            &stats);
    EXPECT_EQ(seen, 5u);
    expectStatsInvariants(stats, 5);
}

// The small-limit wart, fixed: the scan must have exactly-serial limit
// semantics (results AND stats) at every thread count, for limits
// below, at, and above the survivor count.
TEST(EnumerateStream, LimitSemanticsAreExactlySerialAtEveryThreadCount)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions base;
    base.minCoeff = -2;
    base.maxCoeff = 2;
    base.maxHopLength = 2;
    base.limit = 1u << 20;
    base.threads = 1;
    auto all = testkit::enumerateTransformsOracle(spec, base);
    ASSERT_GT(all.size(), 8u);

    const std::size_t limits[] = {1, 2, 7, all.size(), 1u << 20};
    for (std::size_t limit : limits) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto oracle_options = base;
        oracle_options.limit = limit;
        // The serial oracle yields in code order and early-exits at the
        // limit, so its result is a prefix of the unlimited scan; only
        // re-run it for the small limits, where the early exit makes it
        // cheap, as a sanity check of that very claim.
        std::vector<dataflow::SpaceTimeTransform> oracle(
                all.begin(),
                all.begin() +
                        std::ptrdiff_t(std::min(limit, all.size())));
        if (limit <= 7)
            expectSameTransforms(testkit::enumerateTransformsOracle(
                                         spec, oracle_options),
                                 oracle);
        EXPECT_EQ(oracle.size(), std::min(limit, all.size()));

        dataflow::EnumerateStats serial_stats;
        for (std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            auto options = oracle_options;
            options.threads = threads;
            dataflow::EnumerateStats stats;
            auto streamed = testkit::collectTransforms(spec, options,
                                                       &stats);
            expectSameTransforms(streamed, oracle);
            expectStatsInvariants(stats, streamed.size());
            if (threads == 1)
                serial_stats = stats;
            else
                expectSameStats(stats, serial_stats);
        }
    }
}

void
expectSameCandidates(const std::vector<accel::DseCandidate> &got,
                     const std::vector<accel::DseCandidate> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].enumIndex, want[i].enumIndex) << "rank " << i;
        EXPECT_EQ(got[i].transform.name(), want[i].transform.name())
                << "rank " << i;
        EXPECT_EQ(got[i].transform.matrix(), want[i].transform.matrix())
                << "rank " << i;
        EXPECT_EQ(got[i].pes, want[i].pes) << "rank " << i;
        EXPECT_EQ(got[i].scheduleLength, want[i].scheduleLength)
                << "rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
}

void
expectDseInvariants(const accel::DseStats &stats)
{
    EXPECT_EQ(stats.evaluated + stats.prunedEarly + stats.analyticFiltered +
                      stats.failed,
              stats.enumerated);
    EXPECT_EQ(stats.orbitSkipped,
              std::size_t(stats.enumeration.orbitSkipped));
    EXPECT_EQ(stats.enumeration.codesExamined,
              stats.enumeration.orbitSkipped +
                      stats.enumeration.feasibilitySkipped +
                      stats.enumeration.decoded);
    EXPECT_EQ(stats.enumeration.decoded,
              stats.enumeration.rejected + stats.enumeration.duplicates +
                      stats.enumeration.yielded);
    EXPECT_EQ(stats.enumerated, std::size_t(stats.enumeration.yielded));
}

// Tiered DSE end to end: the streamed analytic tier and brute-force
// full elaboration (analyticTopK = 0) must produce the same top-K over
// the same scan — identical enumeration and prune counters — at 1 and 4
// evaluation threads, with and without a maxPes prune.
TEST(EnumerateStream, TieredDseStreamedEqualsFull)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;

    for (std::int64_t max_pes : {0ll, 40ll}) {
        SCOPED_TRACE("maxPes " + std::to_string(max_pes));
        accel::DseOptions base;
        base.topK = 6;
        base.maxPes = max_pes;
        base.enumerate.maxHopLength = 3;
        base.enumerate.minCoeff = -2;
        base.enumerate.maxCoeff = 2;
        base.enumerate.limit = 1200;
        base.threads = 1;

        // Brute force: every survivor fully elaborated.
        accel::DseStats full_stats;
        auto full = accel::exploreDataflows(spec, bounds, base,
                                            area_params, timing_params,
                                            &full_stats);
        expectDseInvariants(full_stats);
        EXPECT_EQ(full_stats.analyticRanked, 0u);
        EXPECT_EQ(full_stats.analyticFiltered, 0u);

        accel::DseStats streamed_serial_stats;
        for (std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            auto tier = base;
            tier.threads = threads;
            tier.analyticTopK = 12;

            accel::DseStats streamed_stats;
            auto streamed = accel::exploreDataflows(
                    spec, bounds, tier, area_params, timing_params,
                    &streamed_stats);

            expectSameCandidates(streamed, full);
            expectDseInvariants(streamed_stats);

            EXPECT_EQ(streamed_stats.enumerated, full_stats.enumerated);
            EXPECT_EQ(streamed_stats.prunedEarly, full_stats.prunedEarly);
            EXPECT_EQ(streamed_stats.orbitSkipped,
                      full_stats.orbitSkipped);
            expectSameStats(streamed_stats.enumeration,
                            full_stats.enumeration);
            const std::size_t scored =
                    full_stats.enumerated - full_stats.prunedEarly;
            ASSERT_GT(scored, tier.analyticTopK);
            EXPECT_EQ(streamed_stats.analyticRanked, scored);
            EXPECT_EQ(streamed_stats.analyticFiltered,
                      scored - tier.analyticTopK);
            EXPECT_EQ(streamed_stats.failed, 0u);
            EXPECT_EQ(streamed_stats.evaluated, tier.analyticTopK);
            if (threads == 1)
                streamed_serial_stats = streamed_stats;
            else {
                EXPECT_EQ(streamed_stats.evaluated,
                          streamed_serial_stats.evaluated);
                expectSameStats(streamed_stats.enumeration,
                                streamed_serial_stats.enumeration);
            }
        }
    }
}

// The fused path with too few survivors for the tier to filter must
// behave exactly like a run without the tier: all survivors
// elaborated, analytic counters and timing zero.
TEST(EnumerateStream, FusedTierSkipsWhenSurvivorsFitInK)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.topK = 6;
    options.threads = 1;
    options.analyticTopK = 4096; // far above the hop-2 survivor count
    accel::DseStats stats;
    auto candidates = accel::exploreDataflows(
            spec, bounds, options, area_params, timing_params, &stats);
    EXPECT_FALSE(candidates.empty());
    expectDseInvariants(stats);
    EXPECT_EQ(stats.analyticRanked, 0u);
    EXPECT_EQ(stats.analyticFiltered, 0u);
    EXPECT_EQ(stats.analyticMs, 0.0);
    EXPECT_EQ(stats.evaluated, stats.enumerated);
}

} // namespace
} // namespace stellar
