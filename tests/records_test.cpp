/**
 * @file
 * The shard-records codec contract (accel/records.hpp).
 *
 * The records file is the trust boundary of the distributed DSE: a
 * merge ingests files that may come from another machine, another
 * build, or a damaged disk. These tests pin the three legs of that
 * boundary: a clean document round-trips byte-exactly; every
 * deterministic corruption mode (and a gauntlet of arbitrary
 * mutilations) is rejected as a *classified* failure, never an
 * unclassified throw; and the merge's partition validation refuses
 * incomplete, duplicated, tampered, forged, or mixed-config shard sets.
 * The differential ranking contract lives in shard_merge_test.cpp.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "accel/records.hpp"
#include "accel/report.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "model/params.hpp"
#include "util/failure.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"

namespace stellar
{
namespace
{

accel::ShardConfig
smallConfig()
{
    accel::ShardConfig config;
    config.dim = 3;
    config.maxHop = 2;
    config.maxCoeff = 1;
    config.topK = 6;
    config.analyticTopK = 8;
    config.enumLimit = 4096;
    return config;
}

std::vector<accel::ShardRecords>
scanAll(const accel::ShardConfig &config, std::int64_t shard_count)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    IntVec bounds = {config.dim, config.dim, config.dim};
    std::vector<accel::ShardRecords> shards;
    for (std::int64_t i = 0; i < shard_count; i++)
        shards.push_back(accel::scanShard(func::matmulSpec(), bounds,
                                          config, i, shard_count, 1,
                                          area_params, timing_params));
    return shards;
}

/** Expect `fn` to throw, and the throw to classify to a known kind. */
template <typename Fn>
util::Failure
expectClassifiedThrow(Fn &&fn, const char *what)
{
    try {
        fn();
    } catch (...) {
        auto failure = util::classifyException(std::current_exception());
        EXPECT_NE(failure.kind, util::FailureKind::Unknown) << what;
        return failure;
    }
    ADD_FAILURE() << what << ": accepted silently";
    return {};
}

} // namespace

TEST(Records, RoundTripIsByteExact)
{
    auto shards = scanAll(smallConfig(), 2);
    std::int64_t total_records = 0;
    for (const auto &shard : shards) {
        std::string text = accel::serializeShardRecords(shard);
        auto parsed = accel::parseShardRecords(text);
        EXPECT_EQ(accel::serializeShardRecords(parsed), text);
        EXPECT_TRUE(parsed.config == shard.config);
        EXPECT_EQ(parsed.range.lo, shard.range.lo);
        EXPECT_EQ(parsed.range.hi, shard.range.hi);
        EXPECT_EQ(parsed.records.size(), shard.records.size());
        for (std::size_t i = 0; i < parsed.records.size(); i++) {
            const auto &got = parsed.records[i];
            const auto &want = shard.records[i];
            EXPECT_EQ(got.code, want.code);
            EXPECT_EQ(got.saturated, want.saturated);
            EXPECT_EQ(got.score, want.score);
            EXPECT_EQ(got.duplicatesAfter, want.duplicatesAfter);
        }
        total_records += std::int64_t(shard.records.size());
    }
    EXPECT_GT(total_records, 0) << "the scan found nothing to record";
}

TEST(Records, VersionFiveRecordsCarryNoDerivedFields)
{
    // Matrix, signature and PE count are pure functions of the code, and
    // so are the skip, examined and decoded counts through a record
    // (canonicalBelow, code - lo + 1, feasibleBelow) and, from those and
    // its position, its rejected count; the merge re-derives them, so
    // none of them crosses the boundary. A record is a keyless array
    // [code,saturated,score,duplicates_after]; the shard-level
    // feasibility_skipped is the one skip field.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    std::string text = accel::serializeShardRecords(shards[0]);
    EXPECT_NE(text.find("\"version\":5"), std::string::npos);
    for (const char *key :
         {"\"matrix\"", "\"signature\"", "\"analytic_pes\"",
          "\"local_index\"", "\"feasibility_skipped_after\"",
          "\"code\"", "\"score\"", "examined_after", "decoded_after",
          "rejected_after", "duplicates_after"})
        EXPECT_EQ(text.find(key), std::string::npos) << key;
    EXPECT_EQ(text.find("\"feasibility_skipped\""),
              text.rfind("\"feasibility_skipped\""));
    EXPECT_NE(text.find("\"feasibility_skipped\""), std::string::npos);

    // Each record spells exactly its four numbers.
    const auto &record = shards[0].records.front();
    char score[32];
    *std::to_chars(score, score + sizeof(score), record.score).ptr = '\0';
    const std::string first = "\"records\":[[" +
                              std::to_string(record.code) + "," +
                              (record.saturated ? "1" : "0") + "," + score +
                              "," + std::to_string(record.duplicatesAfter) +
                              "]";
    EXPECT_NE(text.find(first), std::string::npos) << first;
}

/** Rewrite the version field of a serialized document. */
std::string
withVersion(std::string text, int version)
{
    std::size_t at = text.find("\"version\":5");
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos)
        text.replace(at, 11, "\"version\":" + std::to_string(version));
    return text;
}

TEST(Records, VersionOneDocumentIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 1);
    std::string text =
            withVersion(accel::serializeShardRecords(shards[0]), 1);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "version 1");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find(
                      "unsupported version 1 (this build reads version 5)"),
              std::string::npos)
            << failure.message;
}

// Version 2 counted every canonical code as decoded; its `decoded` and
// `rejected` mean something else, so a v2 file must not fold in.
TEST(Records, VersionTwoDocumentIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 1);
    std::string text =
            withVersion(accel::serializeShardRecords(shards[0]), 2);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "version 2");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find(
                      "unsupported version 2 (this build reads version 5)"),
              std::string::npos)
            << failure.message;
}

// Version 3 cut shards at total*i/N; its ranges and per-shard counts
// are not version 4's, so a v3 file must not fold in.
TEST(Records, VersionThreeDocumentIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 1);
    std::string text =
            withVersion(accel::serializeShardRecords(shards[0]), 3);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "version 3");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find(
                      "unsupported version 3 (this build reads version 5)"),
              std::string::npos)
            << failure.message;
}

// Version 4 stored examined_after, decoded_after and rejected_after in
// keyed records; its records are not version 5's arrays, so a v4 file
// must not fold in.
TEST(Records, VersionFourDocumentIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 1);
    std::string text =
            withVersion(accel::serializeShardRecords(shards[0]), 4);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "version 4");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find(
                      "unsupported version 4 (this build reads version 5)"),
              std::string::npos)
            << failure.message;
}

TEST(Records, EveryCorruptionModeIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 2);
    // The non-empty shard makes the payload damage land on real data.
    const auto &victim =
            shards[0].records.empty() ? shards[1] : shards[0];
    ASSERT_FALSE(victim.records.empty());
    std::string text = accel::serializeShardRecords(victim);
    for (auto mode : {accel::RecordsCorruption::TruncateTail,
                      accel::RecordsCorruption::FlipByte,
                      accel::RecordsCorruption::VersionBump,
                      accel::RecordsCorruption::ChecksumClobber,
                      accel::RecordsCorruption::GarbageHeader}) {
        std::string corrupted = accel::corruptShardRecords(text, mode);
        ASSERT_NE(corrupted, text) << int(mode);
        expectClassifiedThrow(
                [&] { accel::parseShardRecords(corrupted); },
                "corruption mode");
    }
}

TEST(Records, ArbitraryMutilationGauntletNeverThrowsUnclassified)
{
    auto shards = scanAll(smallConfig(), 1);
    std::string text = accel::serializeShardRecords(shards[0]);
    Rng rng(2026);
    int rejected = 0, accepted = 0;
    for (int round = 0; round < 300; round++) {
        std::string damaged = text;
        switch (rng.nextBounded(4)) {
          case 0: // truncate anywhere
            damaged.resize(rng.nextBounded(damaged.size()));
            break;
          case 1: { // flip one byte
            std::size_t at = std::size_t(
                    rng.nextBounded(damaged.size()));
            damaged[at] = char(damaged[at] ^ (1 + rng.nextBounded(255)));
            break;
          }
          case 2: { // excise a span
            std::size_t at = std::size_t(
                    rng.nextBounded(damaged.size()));
            damaged.erase(at, 1 + std::size_t(rng.nextBounded(80)));
            break;
          }
          default: // splice garbage in
            damaged.insert(std::size_t(rng.nextBounded(damaged.size())),
                           "\x01garbage{]\xff");
            break;
        }
        try {
            accel::parseShardRecords(damaged);
            accepted++; // a mutation can be harmless only if it
                        // reconstructs a valid document
            EXPECT_EQ(damaged, text);
        } catch (...) {
            rejected++;
            auto failure =
                    util::classifyException(std::current_exception());
            EXPECT_NE(failure.kind, util::FailureKind::Unknown)
                    << "round " << round;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, 300);
}

/** Recompute a document's checksum over its (edited) payload bytes:
 *  everything from the payload's first byte to the closing '}'. */
std::string
withFreshChecksum(std::string text)
{
    const std::string head = "\"checksum\":\"";
    const std::string tail = "\",\"payload\":";
    std::size_t checksum_at = text.find(head) + head.size();
    std::size_t payload_at = text.find(tail) + tail.size();
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)util::fnv1a(std::string_view(text).substr(
                          payload_at, text.size() - payload_at - 1)));
    text.replace(checksum_at, 16, hex);
    return text;
}

TEST(Records, RespelledDocumentsAreRejectedClassified)
{
    // The reader accepts exactly the bytes the writer produces. A
    // JSON-equal re-spelling fails the raw-byte checksum, and it also
    // fails the strict grammar even when its checksum is recomputed over
    // the edited payload: every number is re-spelled with the writer's
    // std::to_chars call and must come out the same.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    shards[0].records.front().score = 0.1;
    const std::string text = accel::serializeShardRecords(shards[0]);
    ASSERT_NO_THROW(accel::parseShardRecords(text));

    // The first record, `[code,...]`, and its comma-separated fields.
    const std::size_t first = text.find("\"records\":[[") + 11;
    const std::size_t last = text.find(']', first);
    ASSERT_NE(first, std::string::npos);
    const std::string record = text.substr(first, last + 1 - first);
    std::vector<std::string> fields;
    for (std::size_t at = 1; at < record.size();) {
        std::size_t end = record.find(',', at);
        if (end == std::string::npos)
            end = record.size() - 1;
        fields.push_back(record.substr(at, end - at));
        at = end + 1;
    }
    ASSERT_EQ(fields.size(), 4u);
    ASSERT_EQ(fields[2], "0.1");
    auto withRecord = [&](const std::vector<std::string> &edited) {
        std::string body = "[";
        for (std::size_t i = 0; i < edited.size(); i++)
            body += (i == 0 ? "" : ",") + edited[i];
        std::string out = text;
        out.replace(first, record.size(), body + "]");
        return out;
    };
    auto with = [&](std::size_t field, const std::string &spelling) {
        auto edited = fields;
        edited[field] = spelling;
        return withRecord(edited);
    };

    auto swapped = fields;
    std::swap(swapped[0], swapped[2]);
    auto extra = fields;
    extra.push_back("1");
    auto dropped = fields;
    dropped.pop_back();

    char g17[32];
    std::snprintf(g17, sizeof(g17), "%.17g", 0.1);
    ASSERT_STREQ(g17, "0.10000000000000001");

    struct Case
    {
        const char *what;
        std::string text;
    };
    const std::vector<Case> cases = {
            {"whitespace in a record", with(0, " " + fields[0])},
            {"trailing newline", text + "\n"},
            {"swapped fields", withRecord(swapped)},
            {"extra field", withRecord(extra)},
            {"dropped field", withRecord(dropped)},
            {"integer spelled N.0", with(0, fields[0] + ".0")},
            {"integer with a leading zero", with(3, "0" + fields[3])},
            {"saturated spelled false", with(1, "false")},
            {"exponent e spelled E", with(2, "1E-01")},
            {"exponent spelled e", with(2, "1e-01")},
            {"score with a trailing zero", with(2, "0.10")},
            {"score spelled %.17g", with(2, g17)},
    };
    for (const Case &c : cases) {
        ASSERT_NE(c.text, text) << c.what;
        auto failure = expectClassifiedThrow(
                [&] { accel::parseShardRecords(c.text); }, c.what);
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec) << c.what;
        EXPECT_NE(failure.message.find("checksum mismatch"),
                  std::string::npos)
                << c.what << ": " << failure.message;
        std::string fresh = withFreshChecksum(c.text);
        failure = expectClassifiedThrow(
                [&] { accel::parseShardRecords(fresh); }, c.what);
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec) << c.what;
        EXPECT_EQ(failure.message.find("checksum mismatch"),
                  std::string::npos)
                << c.what << ": " << failure.message;
    }
    // The helper itself produces documents the reader accepts.
    EXPECT_NO_THROW(accel::parseShardRecords(withFreshChecksum(text)));

    // The closing '}' lies outside the checksummed span, and the reader
    // still requires it.
    std::string unclosed = text;
    unclosed.back() = ']';
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(unclosed); }, "unclosed");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find("closing the document"),
              std::string::npos)
            << failure.message;
}

TEST(Records, HardScoresRoundTripBitExact)
{
    const std::vector<double> scores = {
            0.0,
            -0.0,
            4.9406564584124654e-324, // the smallest subnormal
            2.2250738585072009e-308, // the largest subnormal
            1e-300,
            1.7976931348623157e308, // the largest finite double
            0.1,                    // 0.10000000000000001 at 17 digits
            1.0 / 3.0,
            123456789.12345679,
            -9007199254740993.0,
    };
    auto shards = scanAll(smallConfig(), 1);
    auto &records = shards[0].records;
    ASSERT_GE(records.size(), scores.size());
    for (std::size_t i = 0; i < records.size(); i++)
        records[i].score = scores[i % scores.size()];
    std::string text = accel::serializeShardRecords(shards[0]);
    auto parsed = accel::parseShardRecords(text);
    EXPECT_EQ(accel::serializeShardRecords(parsed), text);
    ASSERT_EQ(parsed.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); i++)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.records[i].score),
                  std::bit_cast<std::uint64_t>(records[i].score))
                << "record " << i << " score " << records[i].score;
}

/** Merge `shards` at 1, 2 and 4 threads and expect the same classified
 *  UserSpec refusal each time, with a message containing `message`:
 *  the first bad record in code order wins at any thread count. */
void
expectMergeRefused(const std::vector<accel::ShardRecords> &shards,
                   const char *what, const char *message)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = smallConfig();
    IntVec bounds = {config.dim, config.dim, config.dim};
    std::string serial;
    for (std::size_t threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(what) + " at " + std::to_string(threads) +
                     " thread(s)");
        accel::MergeEvalOptions eval;
        eval.threads = threads;
        auto failure = expectClassifiedThrow(
                [&] {
                    accel::mergeShardRecords(shards, func::matmulSpec(),
                                             bounds, eval, area_params,
                                             timing_params, nullptr);
                },
                what);
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
        EXPECT_NE(failure.message.find(message), std::string::npos)
                << failure.message;
        if (threads == 1)
            serial = failure.message;
        EXPECT_EQ(failure.message, serial);
    }
}

/** The enumeration options every shard of smallConfig() scans under. */
dataflow::EnumerateOptions
smallOptions()
{
    auto config = smallConfig();
    dataflow::EnumerateOptions options;
    options.minCoeff = -config.maxCoeff;
    options.maxCoeff = config.maxCoeff;
    options.maxHopLength = config.maxHop;
    return options;
}

TEST(Records, TamperedRangeIsRejectedEvenWithAFreshChecksum)
{
    // An attacker (or a buggy wrapper) re-serializing a shard with a
    // shifted range gets a *valid checksum*, and the parser has no spec
    // to cut with; the merge's tiling check is what has to catch it.
    auto shards = scanAll(smallConfig(), 2);
    dataflow::detail::CandidateDecoder decoder(func::matmulSpec(),
                                               smallOptions());
    for (std::int64_t i = 0; i < 2; i++) {
        const auto [lo, hi] = decoder.shardRange(i, 2);
        ASSERT_EQ(shards[std::size_t(i)].range.lo, lo);
        ASSERT_EQ(shards[std::size_t(i)].range.hi, hi);
    }
    auto &tampered = shards[1];
    tampered.range.lo -= 1; // overlaps shard 0's slice
    tampered.stats.codesExamined += 1; // keep the counter invariant
    tampered.stats.orbitSkipped += 1;
    tampered = accel::parseShardRecords(
            accel::serializeShardRecords(tampered));
    expectMergeRefused(shards, "overlapping range", "do not tile");
}

TEST(Records, MovedCutIsRejectedEvenWithAFreshChecksum)
{
    // Move the edge between two shards by one code on both sides: the
    // ranges still tile, every parse-time invariant holds, and only the
    // spec's cut can refuse the set.
    auto shards = scanAll(smallConfig(), 2);
    auto &left = shards[0];
    auto &right = shards[1];
    ASSERT_FALSE(left.records.empty());
    ASSERT_LT(left.records.back().code, left.range.hi - 1);
    ASSERT_GT(left.stats.orbitSkipped + left.stats.feasibilitySkipped, 0);
    left.range.hi -= 1;
    left.stats.codesExamined -= 1;
    if (left.stats.orbitSkipped > 0)
        left.stats.orbitSkipped -= 1;
    else
        left.stats.feasibilitySkipped -= 1;
    right.range.lo -= 1;
    right.stats.codesExamined += 1;
    right.stats.orbitSkipped += 1;
    for (auto &shard : shards)
        shard = accel::parseShardRecords(
                accel::serializeShardRecords(shard));
    expectMergeRefused(shards, "moved cut", "this spec cuts it at");
}

TEST(Records, ForgedDecodedCountIsRejectedEvenWithAFreshChecksum)
{
    // Move one code between `decoded` and `feasibility_skipped` (and
    // between `rejected` and nothing): the counter invariants and the
    // canonical count still hold, so only the exact feasible count of
    // the range can refuse it, one code off in either direction.
    for (std::int64_t delta : {1, -1}) {
        SCOPED_TRACE("decoded " + std::to_string(delta));
        auto shards = scanAll(smallConfig(), 2);
        auto &stats = shards[1].stats;
        ASSERT_GT(stats.rejected, 0);
        ASSERT_GT(stats.feasibilitySkipped, 0);
        stats.decoded += delta;
        stats.rejected += delta;
        stats.feasibilitySkipped -= delta;
        shards[1] = accel::parseShardRecords(
                accel::serializeShardRecords(shards[1]));
        expectMergeRefused(shards, "forged decoded", "feasible codes");
    }
}

TEST(Records, FeasibilitySkippedBreakingTheInvariantIsRejected)
{
    // A re-serialized shard carries a fresh checksum, so the parse-time
    // counter invariant is what must catch a moved feasibility count.
    auto shards = scanAll(smallConfig(), 2);
    auto tampered = shards[1];
    tampered.stats.feasibilitySkipped += 1;
    std::string text = accel::serializeShardRecords(tampered);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "feasibility count");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find("feasibilitySkipped"), std::string::npos)
            << failure.message;
}

TEST(Records, DecodedBeyondTheCanonicalCountIsRejected)
{
    // Claim more decoded codes than the range holds canonical ones, with
    // every parse-time invariant kept and a fresh checksum: only the
    // merge's closed-form canonical count can refuse it.
    auto shards = scanAll(smallConfig(), 2);
    auto &stats = shards[1].stats;
    const std::int64_t extra = stats.feasibilitySkipped + 1;
    stats.decoded += extra;
    stats.rejected += extra;
    stats.feasibilitySkipped = 0;
    stats.orbitSkipped -= 1;
    shards[1] = accel::parseShardRecords(
            accel::serializeShardRecords(shards[1]));
    expectMergeRefused(shards, "decoded beyond canonical", "canonical codes");
}

TEST(Records, MovedCodeWithoutItsScanSnapshotIsRejected)
{
    // A record's examined and decoded counts are derived from its code,
    // so a moved code carries a matching snapshot and parses. The first
    // record is the first survivor of its slice: every earlier code is
    // not canonical, filtered out or rejected, so the merge's re-decode
    // refuses the moved code.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    auto &record = shards[0].records.front();
    ASSERT_GT(record.code, shards[0].range.lo);
    record.code -= 1;
    shards[0] = accel::parseShardRecords(
            accel::serializeShardRecords(shards[0]));
    expectMergeRefused(shards, "moved code", "does not decode");
}

TEST(Records, ForgedCodeIsRejectedEvenWithAFreshChecksum)
{
    // A record carries no matrix: the merge re-derives it from the
    // code, and its examined and decoded counts with it. Rewriting a
    // code under a fresh checksum parses cleanly, so the merge's
    // re-decode is what has to refuse a code that is not an
    // orbit-canonical survivor, or that repeats a signature its own
    // shard already yielded.
    // Seven shards cut the space inside time-row blocks, so some
    // signatures are yielded by two shards.
    auto shards = scanAll(smallConfig(), 7);
    dataflow::detail::CandidateDecoder decoder(func::matmulSpec(),
                                               smallOptions());

    // Move the first record that has a `wanted` code between its
    // predecessor's and its own onto that code.
    auto forge = [&](auto wanted) {
        auto forged = shards;
        for (auto &shard : forged) {
            std::int64_t lo = shard.range.lo;
            for (std::size_t i = 0; i < shard.records.size(); i++) {
                auto &record = shard.records[i];
                for (std::int64_t code = lo; code < record.code; code++) {
                    if (!wanted(shard.range.shardIndex, code))
                        continue;
                    record.code = code;
                    if (decoder.canonical(code) && decoder.decode(code)) {
                        // Keep the derived rejected count the scan's own
                        // through `code` (its feasible codes that do not
                        // decode), so the signature check is what fires.
                        const std::int64_t lo_rank =
                                decoder.feasibleBelow(shard.range.lo);
                        std::int64_t rejected = 0;
                        for (std::int64_t c = shard.range.lo; c <= code;
                             c++)
                            if (decoder.feasibleBelow(c + 1) !=
                                        decoder.feasibleBelow(c) &&
                                !decoder.decode(c))
                                rejected++;
                        record.duplicatesAfter =
                                decoder.feasibleBelow(code + 1) - lo_rank -
                                rejected - std::int64_t(i + 1);
                    }
                    shard = accel::parseShardRecords(
                            accel::serializeShardRecords(shard));
                    return forged;
                }
                lo = record.code + 1;
            }
        }
        ADD_FAILURE() << "no code to forge";
        return forged;
    };
    expectMergeRefused(forge([&](std::int64_t, std::int64_t code) {
                           return !decoder.canonical(code) &&
                                  decoder.decode(code);
                       }),
                       "non-canonical survivor", "does not decode");
    expectMergeRefused(forge([&](std::int64_t, std::int64_t code) {
                           return decoder.canonical(code) &&
                                  !decoder.decode(code);
                       }),
                       "filtered code", "does not decode");
    expectMergeRefused(forge([&](std::int64_t, std::int64_t code) {
                           return decoder.canonical(code) &&
                                  decoder.decode(code);
                       }),
                       "repeated signature", "repeats a signature");

    // The same repeat of a signature an earlier shard yielded first: the
    // honest copy is a cross-shard duplicate, the forged second copy
    // must still be refused.
    std::vector<std::set<std::vector<std::int64_t>>> earlier(
            shards.size());
    for (std::size_t i = 1; i < shards.size(); i++) {
        earlier[i] = earlier[i - 1];
        for (const auto &record : shards[i - 1].records) {
            ASSERT_TRUE(decoder.decode(record.code));
            earlier[i].insert(decoder.signature());
        }
    }
    expectMergeRefused(forge([&](std::int64_t shard, std::int64_t code) {
                           return decoder.canonical(code) &&
                                  decoder.decode(code) &&
                                  earlier[std::size_t(shard)].count(
                                          decoder.signature()) != 0;
                       }),
                       "repeated cross-shard signature", "repeats a signature");
}

/** A merge's ranking and stats as comparable text. */
std::string
mergedText(std::vector<accel::ShardRecords> shards, std::size_t threads)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = shards.front().config;
    IntVec bounds = {config.dim, config.dim, config.dim};
    accel::MergeEvalOptions eval;
    eval.threads = threads;
    accel::DseStats stats;
    std::string out;
    for (const auto &candidate : accel::mergeShardRecords(
                 std::move(shards), func::matmulSpec(), bounds, eval,
                 area_params, timing_params, &stats)) {
        char score[32];
        std::snprintf(score, sizeof(score), "%.17g", candidate.score);
        out += candidate.transform.matrix().toString() + " " +
               std::to_string(candidate.enumIndex) + " " + score + "\n";
    }
    stats.threadsUsed = 0; // the one field that names the thread count
    return out + accel::dseStatsReport(stats, false);
}

TEST(Records, ForgedDuplicatesAfterIsRejectedEvenWithAFreshChecksum)
{
    // Of a record's scan snapshot only duplicates_after is stored; the
    // merge derives rejected_after = decoded_after - duplicates_after -
    // yields through the record. Moving one count between the two by
    // one, under a fresh checksum, is refused wherever it shows: where
    // either count falls below the previous record's (or 0) or rises
    // above the next record's (or the shard's) — duplicates_after at
    // parse, the derived rejected_after at merge. Elsewhere only a limit
    // stop on that record reads the forged count, so an unlimited merge
    // is unchanged.
    const auto shards = scanAll(smallConfig(), 2);
    const accel::ShardRecords &shard = shards[1];
    const std::string clean = mergedText(shards, 1);
    dataflow::detail::CandidateDecoder decoder(func::matmulSpec(),
                                               smallOptions());
    const std::size_t n = shard.records.size();
    ASSERT_GE(n, 2u);
    std::vector<std::int64_t> duplicates(n), rejected(n);
    for (std::size_t i = 0; i < n; i++) {
        const auto &record = shard.records[i];
        duplicates[i] = record.duplicatesAfter;
        rejected[i] = decoder.feasibleBelow(record.code + 1) -
                      decoder.feasibleBelow(shard.range.lo) -
                      record.duplicatesAfter - std::int64_t(i + 1);
    }
    // Whether `counts` with entry i set to `value` stops being a
    // non-decreasing run from 0 to `total`.
    auto breaks = [&](const std::vector<std::int64_t> &counts,
                      std::size_t i, std::int64_t value,
                      std::int64_t total) {
        return value < (i == 0 ? 0 : counts[i - 1]) ||
               value > (i + 1 == n ? total : counts[i + 1]);
    };
    int at_parse = 0, at_merge = 0, unchanged = 0;
    for (std::int64_t delta : {-1, 1}) {
        for (std::size_t i = 0; i < n; i++) {
            SCOPED_TRACE("record " + std::to_string(i) + " delta " +
                         std::to_string(delta));
            auto forged = shards;
            forged[1].records[i].duplicatesAfter += delta;
            const std::string text =
                    accel::serializeShardRecords(forged[1]);
            if (breaks(duplicates, i, duplicates[i] + delta,
                       shard.stats.duplicates)) {
                auto failure = expectClassifiedThrow(
                        [&] { accel::parseShardRecords(text); },
                        "forged duplicates_after");
                EXPECT_NE(failure.message.find("claims duplicates_after"),
                          std::string::npos)
                        << failure.message;
                at_parse++;
                continue;
            }
            forged[1] = accel::parseShardRecords(text);
            if (breaks(rejected, i, rejected[i] - delta,
                       shard.stats.rejected)) {
                expectMergeRefused(forged, "forged duplicates_after",
                                   "derives rejected_after");
                at_merge++;
                continue;
            }
            EXPECT_EQ(mergedText(forged, 1), clean);
            unchanged++;
        }
    }
    EXPECT_GT(at_parse, 0);
    EXPECT_GT(at_merge, 0);
    EXPECT_GT(unchanged, 0);
    EXPECT_EQ(at_parse + at_merge + unchanged, int(2 * n));
}

TEST(Records, MergeIsIdenticalAtEveryThreadCount)
{
    // The decode runs on the merge's workers, the fold on one thread in
    // code order: candidates and stats cannot depend on the count, also
    // when a limit stops the walk mid-chunk or the maxPes prune drops
    // survivors.
    for (std::int64_t max_pes : {0, 6}) {
        for (std::int64_t limit : {1, 17, 60, 4096}) {
            auto config = smallConfig();
            config.maxPes = max_pes;
            config.enumLimit = limit;
            for (std::int64_t shard_count : {1, 3, 7}) {
                SCOPED_TRACE("max_pes " + std::to_string(max_pes) +
                             " limit " + std::to_string(limit) + " " +
                             std::to_string(shard_count) + " shard(s)");
                auto shards = scanAll(config, shard_count);
                const std::string serial = mergedText(shards, 1);
                EXPECT_EQ(mergedText(shards, 2), serial);
                EXPECT_EQ(mergedText(shards, 4), serial);
            }
        }
    }
}

TEST(Records, DecodeWorkerErrorsSurfaceInCodeOrder)
{
    // The maxPes prune runs on the decode workers. With bounds that do
    // not fit the transforms it throws at the first survivor, and a
    // forged record before that survivor must still win, exactly as in
    // the serial walk, at any thread count.
    auto config = smallConfig();
    config.maxPes = 4;
    const auto shards = scanAll(config, 3);
    auto forged = shards;
    // Shard 0's first record is the first survivor of the space, so the
    // code before it is not one.
    ASSERT_GT(forged[0].records.front().code, 0);
    forged[0].records.front().code -= 1;
    model::AreaParams area_params;
    model::TimingParams timing_params;
    const IntVec bounds = {config.dim, config.dim}; // one short
    auto messages = [&](const std::vector<accel::ShardRecords> &set) {
        std::vector<std::string> out;
        for (std::size_t threads : {1, 2, 4}) {
            accel::MergeEvalOptions eval;
            eval.threads = threads;
            out.push_back(expectClassifiedThrow(
                                  [&] {
                                      accel::mergeShardRecords(
                                              set, func::matmulSpec(),
                                              bounds, eval, area_params,
                                              timing_params, nullptr);
                                  },
                                  "bounds that do not fit")
                                  .message);
        }
        return out;
    };
    for (const auto &[set, message] :
         {std::pair(shards, "dimensionality"),
          std::pair(forged, "does not decode")}) {
        const auto got = messages(set);
        EXPECT_NE(got[0].find(message), std::string::npos) << got[0];
        EXPECT_EQ(got[1], got[0]);
        EXPECT_EQ(got[2], got[0]);
    }
}

TEST(Records, HugeYieldedIsRefusedWithoutAHugeReservation)
{
    // A forged `yielded` (its space and counters kept consistent, under a
    // fresh checksum) must not size the record buffer: the reader
    // reserves at most one record per 9 payload bytes, the shortest
    // record spelling, and refuses the count it cannot find. Without
    // that bound the reservation below would ask for 2^49 bytes and
    // fail as an allocation error instead.
    auto shards = scanAll(smallConfig(), 1);
    auto &shard = shards[0];
    const std::int64_t huge = std::int64_t(1) << 44;
    shard.range.codesTotal = shard.stats.codesTotal = 4 * huge;
    shard.range.hi = shard.range.codesTotal;
    shard.stats.codesExamined = shard.range.hi - shard.range.lo;
    shard.stats.yielded = huge;
    shard.stats.decoded =
            shard.stats.yielded + shard.stats.rejected + shard.stats.duplicates;
    shard.stats.orbitSkipped = shard.stats.codesExamined -
                               shard.stats.feasibilitySkipped -
                               shard.stats.decoded;
    const std::string text = accel::serializeShardRecords(shard);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "huge yielded");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find("record count disagrees with "
                                   "stats.yielded"),
              std::string::npos)
            << failure.message;
}

TEST(Records, MergeRejectsIncompleteDuplicateAndMixedConfigSets)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = smallConfig();
    IntVec bounds = {config.dim, config.dim, config.dim};
    auto shards = scanAll(config, 3);
    accel::MergeEvalOptions eval;
    eval.threads = 1;
    accel::DseStats stats;
    auto merge = [&](std::vector<accel::ShardRecords> set) {
        return accel::mergeShardRecords(std::move(set),
                                        func::matmulSpec(), bounds, eval,
                                        area_params, timing_params,
                                        &stats);
    };

    // The complete set merges.
    EXPECT_FALSE(merge(shards).empty());

    expectClassifiedThrow([&] { merge({}); }, "empty set");

    auto incomplete = shards;
    incomplete.pop_back();
    expectClassifiedThrow([&] { merge(incomplete); }, "missing shard");

    auto duplicated = shards;
    duplicated[2] = duplicated[0];
    auto failure = expectClassifiedThrow([&] { merge(duplicated); },
                                         "duplicated shard");
    EXPECT_NE(failure.message.find("overlapping"), std::string::npos)
            << failure.message;

    // Same partition, different sweep: one shard scanned under another
    // coefficient window must not fold into this ranking.
    auto mixed_config = config;
    mixed_config.maxHop = 1;
    auto foreign = scanAll(mixed_config, 3);
    auto mixed = shards;
    mixed[1] = foreign[1];
    expectClassifiedThrow([&] { merge(mixed); }, "mixed config");
}

TEST(Records, FileRoundTripMissingAndCorruptFilesAreClassified)
{
    auto dir = std::filesystem::temp_directory_path() /
               "stellar_records_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = (dir / "shard0.json").string();

    auto shards = scanAll(smallConfig(), 1);
    accel::saveShardRecordsFile(shards[0], path);
    auto loaded = accel::loadShardRecordsFile(path);
    EXPECT_EQ(accel::serializeShardRecords(loaded),
              accel::serializeShardRecords(shards[0]));

    expectClassifiedThrow(
            [&] {
                accel::loadShardRecordsFile((dir / "absent.json").string());
            },
            "missing file");

    // Damage the file on disk: load must reject it classified.
    std::string text = accel::serializeShardRecords(shards[0]);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
            << accel::corruptShardRecords(
                       text, accel::RecordsCorruption::FlipByte);
    expectClassifiedThrow([&] { accel::loadShardRecordsFile(path); },
                          "corrupt file");
    std::filesystem::remove_all(dir);
}

} // namespace stellar
