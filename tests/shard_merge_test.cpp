/**
 * @file
 * The differential shard/merge contract: N independent shard scans,
 * folded by the merge, reproduce the single-process DSE *byte for
 * byte* — the ranked table and the stats report both, including the
 * failure and orbit-skipped counter folding — at every shard count and
 * every eval thread count. This is the distributed analogue of the
 * serve daemon's served-vs-CLI identity: if it holds, sharding is an
 * invisible transport, not a second code path with its own behavior.
 *
 * Also here: the partition property (every code owned by exactly one
 * shard, over randomized enumeration spaces) and merge determinism
 * under shuffled input-file order. The codec's corruption-rejection
 * contract lives in records_test.cpp.
 *
 * Runs under the `concurrency` ctest label: the scans and the merge
 * elaboration both use thread pools, so the TSan tree of
 * scripts/check_matrix.sh replays all of this for the race leg.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "accel/records.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "model/params.hpp"
#include "serve/commands.hpp"
#include "util/rng.hpp"

namespace stellar
{
namespace
{

/** Render the single-process ranking + stats (no timings: the report
 *  must be byte-comparable across processes and runs). */
std::string
singleProcess(const serve::DseRequest &request)
{
    auto rendered = serve::renderDse(request);
    return rendered.output;
}

/** Scan every shard, then merge — through the same renderers the CLI
 *  uses, via real files in `dir`, so the whole transport is on trial. */
std::string
shardedViaFiles(const serve::DseRequest &request, std::int64_t shards,
                const std::filesystem::path &dir)
{
    std::vector<std::string> paths;
    for (std::int64_t i = 0; i < shards; i++) {
        serve::ShardScanRequest scan;
        scan.dse = request;
        scan.shardIndex = i;
        scan.shardCount = shards;
        scan.outPath =
                (dir / ("shard" + std::to_string(i) + ".json")).string();
        serve::renderShardScan(scan);
        paths.push_back(scan.outPath);
    }
    serve::MergeRequest merge;
    merge.inputs = paths;
    merge.threads = request.threads;
    merge.stepBudget = request.stepBudget;
    merge.timeBudgetMillis = request.timeBudgetMillis;
    merge.retryWallClock = request.retryWallClock;
    merge.failFast = request.failFast;
    merge.timings = request.timings;
    return serve::renderMerge(merge).output;
}

class ShardDir : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test: ctest runs each case as its own
        // process, in parallel under -j.
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("stellar_shard_merge_test_") +
                ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

serve::DseRequest
baseRequest()
{
    serve::DseRequest request;
    request.dim = 4;
    request.topK = 8;
    request.analyticTopK = 12;
    request.maxHop = 2;
    request.maxCoeff = 1;
    request.enumLimit = 4096;
    request.timings = false; // wall times are the one licensed diff
    return request;
}

} // namespace

TEST_F(ShardDir, MergeIsByteIdenticalAcrossShardAndThreadCounts)
{
    auto request = baseRequest();
    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(4)}) {
        request.threads = threads;
        std::string expected = singleProcess(request);
        ASSERT_NE(expected.find("rank  PEs"), std::string::npos);
        for (std::int64_t shards : {std::int64_t(2), std::int64_t(4),
                                    std::int64_t(7)}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
            EXPECT_EQ(shardedViaFiles(request, shards, dir_), expected);
        }
    }
}

TEST_F(ShardDir, EnumLimitStoppingMidShardFoldsStatsExactly)
{
    // A limit that lands inside a shard's slice: the merge must stop
    // its consuming walk at the same yield the stream would, and the
    // folded counters (examined/orbit-skipped/duplicates) must match
    // the partially-consumed stream's, not the full scan's.
    auto request = baseRequest();
    request.enumLimit = 40;
    std::string expected = singleProcess(request);
    for (std::int64_t shards : {std::int64_t(2), std::int64_t(4),
                                std::int64_t(7)}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_EQ(shardedViaFiles(request, shards, dir_), expected);
    }
}

TEST_F(ShardDir, MaxPesPruneAndFailureCountersFoldIdentically)
{
    // maxPes exercises the pruned-early folding; a tiny step budget
    // makes real candidates *fail* during elaboration, so the failure
    // taxonomy lines of the stats report are on trial too.
    auto request = baseRequest();
    request.maxPes = 16;
    std::string expected = singleProcess(request);
    EXPECT_EQ(shardedViaFiles(request, 4, dir_), expected);

    auto failing = baseRequest();
    failing.threads = 1; // deterministic failure *order* in the report
    failing.stepBudget = 200;
    std::string expected_failing = singleProcess(failing);
    ASSERT_NE(expected_failing.find("failed"), std::string::npos);
    EXPECT_EQ(shardedViaFiles(failing, 3, dir_), expected_failing);
}

TEST_F(ShardDir, MergeIsDeterministicUnderShuffledInputOrder)
{
    auto request = baseRequest();
    std::vector<std::string> paths;
    for (std::int64_t i = 0; i < 4; i++) {
        serve::ShardScanRequest scan;
        scan.dse = request;
        scan.shardIndex = i;
        scan.shardCount = 4;
        scan.outPath =
                (dir_ / ("s" + std::to_string(i) + ".json")).string();
        serve::renderShardScan(scan);
        paths.push_back(scan.outPath);
    }
    serve::MergeRequest merge;
    merge.inputs = paths;
    merge.threads = 1;
    std::string expected = serve::renderMerge(merge).output;
    Rng rng(99);
    for (int round = 0; round < 6; round++) {
        for (std::size_t i = paths.size(); i > 1; i--)
            std::swap(paths[i - 1],
                      paths[std::size_t(rng.nextBounded(i))]);
        merge.inputs = paths;
        EXPECT_EQ(serve::renderMerge(merge).output, expected)
                << "round " << round;
    }
}

TEST(ShardPartition, EveryCodeIsOwnedByExactlyOneShard)
{
    // Over randomized enumeration spaces: the per-shard scans must
    // partition the code axis exactly — ranges tile [0, total) with no
    // overlap, every yielded code falls in its own shard's range, and
    // the union of shard yields covers every code the unsharded scan
    // yields (cross-shard duplicates may add codes, never lose them).
    auto functional = func::matmulSpec();
    Rng rng(42);
    for (int space = 0; space < 12; space++) {
        dataflow::EnumerateOptions base;
        std::int64_t range = 2 + std::int64_t(rng.nextBounded(2));
        base.minCoeff = -(range / 2);
        base.maxCoeff = base.minCoeff + range - 1;
        base.maxHopLength = 1 + int(rng.nextBounded(3));
        base.allowBroadcast = rng.nextBool(0.5);
        base.limit = std::size_t(1) << 40;
        base.threads = 1 + std::size_t(rng.nextBounded(4));
        std::int64_t shards = 2 + std::int64_t(rng.nextBounded(6));
        SCOPED_TRACE("space " + std::to_string(space) + " coeff [" +
                     std::to_string(base.minCoeff) + "," +
                     std::to_string(base.maxCoeff) + "] hop " +
                     std::to_string(base.maxHopLength) + " shards " +
                     std::to_string(shards));

        std::set<std::int64_t> unsharded;
        dataflow::EnumerateStats full_stats;
        dataflow::forEachTransform(
                functional, base,
                [&](const dataflow::EnumeratedTransform &item) {
                    unsharded.insert(item.code);
                    return true;
                },
                &full_stats);

        std::set<std::int64_t> owned; // codes claimed by any shard
        std::int64_t examined_total = 0;
        std::int64_t prev_hi = 0;
        dataflow::detail::CandidateDecoder decoder(functional, base);
        for (std::int64_t i = 0; i < shards; i++) {
            auto opt = base;
            opt.shardIndex = i;
            opt.shardCount = shards;
            const auto [lo, hi] = decoder.shardRange(i, shards);
            EXPECT_EQ(lo, prev_hi) << "gap/overlap at shard " << i;
            prev_hi = hi;
            dataflow::EnumerateStats stats;
            dataflow::forEachTransform(
                    functional, opt,
                    [&](const dataflow::EnumeratedTransform &item) {
                        EXPECT_GE(item.code, lo);
                        EXPECT_LT(item.code, hi);
                        EXPECT_TRUE(owned.insert(item.code).second)
                                << "code " << item.code
                                << " yielded by two shards";
                        return true;
                    },
                    &stats);
            EXPECT_EQ(stats.codesExamined, hi - lo);
            EXPECT_EQ(stats.codesTotal, full_stats.codesTotal);
            examined_total += stats.codesExamined;
        }
        EXPECT_EQ(prev_hi, full_stats.codesTotal);
        EXPECT_EQ(examined_total, full_stats.codesTotal);
        for (std::int64_t code : unsharded)
            EXPECT_TRUE(owned.count(code))
                    << "unsharded code " << code << " owned by no shard";
    }
}

TEST_F(ShardDir, MoreShardsThanFeasibleCodesMergeIdentically)
{
    // At hop 0 every spatial row is zero, so the space holds one
    // feasible tuple per causal time row: 8 feasible codes, all
    // singular. 13 shards leave 5 of them empty slices, which must
    // still scan, serialize, parse and merge like any other shard.
    auto request = baseRequest();
    request.maxHop = 0;
    std::string expected = singleProcess(request);
    ASSERT_NE(expected.find("explored"), std::string::npos);
    EXPECT_EQ(shardedViaFiles(request, 13, dir_), expected);
}

TEST(ShardPartition, ShardCountOneIsByteIdenticalToUnsharded)
{
    auto request = baseRequest();
    std::string expected = singleProcess(request);
    auto dir = std::filesystem::temp_directory_path() /
               "stellar_shard_one_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EXPECT_EQ(shardedViaFiles(request, 1, dir), expected);
    std::filesystem::remove_all(dir);
}

TEST(ShardStats, MergedDseStatsMatchSingleProcessFieldByField)
{
    // Beyond the rendered report: every non-timing DseStats counter the
    // merge returns must equal the single-process run's.
    auto request = baseRequest();
    auto single = serve::renderDse(request);

    auto dir = std::filesystem::temp_directory_path() /
               "stellar_shard_stats_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<accel::ShardRecords> shards;
    {
        accel::ShardConfig config;
        config.dim = request.dim;
        config.maxHop = request.maxHop;
        config.maxCoeff = request.maxCoeff;
        config.topK = std::int64_t(request.topK);
        config.analyticTopK = std::int64_t(request.analyticTopK);
        config.enumLimit = std::int64_t(request.enumLimit);
        model::AreaParams area_params;
        model::TimingParams timing_params;
        IntVec bounds = {request.dim, request.dim, request.dim};
        for (std::int64_t i = 0; i < 4; i++)
            shards.push_back(accel::scanShard(func::matmulSpec(), bounds,
                                              config, i, 4, 2,
                                              area_params,
                                              timing_params));
    }
    accel::MergeEvalOptions eval;
    eval.threads = request.threads;
    accel::DseStats merged;
    model::AreaParams area_params;
    model::TimingParams timing_params;
    IntVec bounds = {request.dim, request.dim, request.dim};
    auto candidates = accel::mergeShardRecords(
            std::move(shards), func::matmulSpec(), bounds, eval,
            area_params, timing_params, &merged);
    EXPECT_FALSE(candidates.empty());

    const auto &expected = single.dseStats;
    EXPECT_EQ(merged.enumeration.codesTotal, expected.enumeration.codesTotal);
    EXPECT_EQ(merged.enumeration.codesExamined,
              expected.enumeration.codesExamined);
    EXPECT_EQ(merged.enumeration.orbitSkipped,
              expected.enumeration.orbitSkipped);
    EXPECT_EQ(merged.enumeration.decoded, expected.enumeration.decoded);
    EXPECT_EQ(merged.enumeration.rejected, expected.enumeration.rejected);
    EXPECT_EQ(merged.enumeration.duplicates, expected.enumeration.duplicates);
    EXPECT_EQ(merged.enumeration.yielded, expected.enumeration.yielded);
    EXPECT_EQ(merged.enumerated, expected.enumerated);
    EXPECT_EQ(merged.prunedEarly, expected.prunedEarly);
    EXPECT_EQ(merged.analyticRanked, expected.analyticRanked);
    EXPECT_EQ(merged.analyticFiltered, expected.analyticFiltered);
    EXPECT_EQ(merged.evaluated, expected.evaluated);
    EXPECT_EQ(merged.failed, expected.failed);
    EXPECT_EQ(merged.threadsUsed, expected.threadsUsed);
    std::filesystem::remove_all(dir);
}

} // namespace stellar
