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
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "accel/records.hpp"
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
            EXPECT_EQ(got.examinedAfter, want.examinedAfter);
            EXPECT_EQ(got.decodedAfter, want.decodedAfter);
            EXPECT_EQ(got.rejectedAfter, want.rejectedAfter);
            EXPECT_EQ(got.duplicatesAfter, want.duplicatesAfter);
        }
        total_records += std::int64_t(shard.records.size());
    }
    EXPECT_GT(total_records, 0) << "the scan found nothing to record";
}

TEST(Records, VersionFourRecordsCarryNoDerivedFields)
{
    // Matrix, signature and PE count are pure functions of the code, and
    // so are the skip counts through a record (canonicalBelow); the
    // merge re-derives them, so none of them crosses the boundary. The
    // shard-level feasibility_skipped is the one skip field.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    std::string text = accel::serializeShardRecords(shards[0]);
    EXPECT_NE(text.find("\"version\":4"), std::string::npos);
    for (const char *key :
         {"\"matrix\"", "\"signature\"", "\"analytic_pes\"",
          "\"local_index\"", "\"feasibility_skipped_after\""})
        EXPECT_EQ(text.find(key), std::string::npos) << key;
    EXPECT_EQ(text.find("\"feasibility_skipped\""),
              text.rfind("\"feasibility_skipped\""));
    EXPECT_NE(text.find("\"feasibility_skipped\""), std::string::npos);
}

/** Rewrite the version field of a serialized document. */
std::string
withVersion(std::string text, int version)
{
    std::size_t at = text.find("\"version\":4");
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
                      "unsupported version 1 (this build reads version 4)"),
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
                      "unsupported version 2 (this build reads version 4)"),
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
                      "unsupported version 3 (this build reads version 4)"),
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
    // JSON-equal re-spelling fails the raw-byte checksum, and one that
    // changes the structure fails the strict grammar even when its
    // checksum is recomputed over the edited payload.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    shards[0].records.front().score = 1e-300;
    const std::string text = accel::serializeShardRecords(shards[0]);
    ASSERT_NO_THROW(accel::parseShardRecords(text));

    // The first record, `{"code":...}`, and its comma-separated fields.
    const std::size_t first = text.find("{\"code\":");
    const std::size_t last = text.find('}', first);
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
    ASSERT_EQ(fields.size(), 7u);
    ASSERT_EQ(fields[2], "\"score\":1e-300");
    auto withRecord = [&](const std::vector<std::string> &edited) {
        std::string body = "{";
        for (std::size_t i = 0; i < edited.size(); i++)
            body += (i == 0 ? "" : ",") + edited[i];
        std::string out = text;
        out.replace(first, record.size(), body + "}");
        return out;
    };

    auto swapped = fields;
    std::swap(swapped[1], swapped[2]);
    auto extra = fields;
    extra.push_back("\"extra\":1");
    auto dropped = fields;
    dropped.pop_back();
    auto fractional = fields;
    fractional[0] += ".0";
    auto spaced = fields;
    spaced[0].insert(spaced[0].find(':') + 1, " ");
    auto upper = fields;
    upper[2] = "\"score\":1E-300";

    struct Case
    {
        const char *what;
        std::string text;
        bool structural;
    };
    const std::vector<Case> cases = {
            {"whitespace in a record", withRecord(spaced), true},
            {"trailing newline", text + "\n", true},
            {"swapped keys", withRecord(swapped), true},
            {"extra field", withRecord(extra), true},
            {"dropped field", withRecord(dropped), true},
            {"integer spelled N.0", withRecord(fractional), true},
            {"exponent e spelled E", withRecord(upper), false},
    };
    for (const Case &c : cases) {
        ASSERT_NE(c.text, text) << c.what;
        auto failure = expectClassifiedThrow(
                [&] { accel::parseShardRecords(c.text); }, c.what);
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec) << c.what;
        EXPECT_NE(failure.message.find("checksum mismatch"),
                  std::string::npos)
                << c.what << ": " << failure.message;
        if (!c.structural)
            continue;
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

/** Merge `shards` and expect a classified UserSpec refusal whose
 *  message contains `message`. */
void
expectMergeRefused(std::vector<accel::ShardRecords> shards,
                   const char *what, const char *message)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = smallConfig();
    IntVec bounds = {config.dim, config.dim, config.dim};
    accel::MergeEvalOptions eval;
    eval.threads = 1;
    auto failure = expectClassifiedThrow(
            [&] {
                accel::mergeShardRecords(std::move(shards),
                                         func::matmulSpec(), bounds, eval,
                                         area_params, timing_params,
                                         nullptr);
            },
            what);
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec) << what;
    EXPECT_NE(failure.message.find(message), std::string::npos)
            << failure.message;
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
    for (auto &record : tampered.records)
        record.examinedAfter += 1;
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
    for (auto &record : right.records)
        record.examinedAfter += 1;
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
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = smallConfig();
    IntVec bounds = {config.dim, config.dim, config.dim};
    auto shards = scanAll(config, 2);
    auto &stats = shards[1].stats;
    const std::int64_t extra = stats.feasibilitySkipped + 1;
    stats.decoded += extra;
    stats.rejected += extra;
    stats.feasibilitySkipped = 0;
    stats.orbitSkipped -= 1;
    shards[1] = accel::parseShardRecords(
            accel::serializeShardRecords(shards[1]));
    accel::MergeEvalOptions eval;
    eval.threads = 1;
    auto failure = expectClassifiedThrow(
            [&] {
                accel::mergeShardRecords(shards, func::matmulSpec(), bounds,
                                         eval, area_params, timing_params,
                                         nullptr);
            },
            "decoded beyond canonical");
    EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
    EXPECT_NE(failure.message.find("canonical codes"), std::string::npos)
            << failure.message;
}

TEST(Records, MovedCodeWithoutItsScanSnapshotIsRejected)
{
    // The scan covers its slice code by code, so a record's
    // examined_after is its code's offset in the slice plus one: a code
    // moved without that counter fails at parse, fresh checksum or not.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    auto &record = shards[0].records.front();
    ASSERT_GT(record.code, shards[0].range.lo);
    record.code -= 1;
    std::string text = accel::serializeShardRecords(shards[0]);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "moved code");
    EXPECT_NE(failure.message.find("examined_after"), std::string::npos)
            << failure.message;
}

TEST(Records, ForgedCodeIsRejectedEvenWithAFreshChecksum)
{
    // A record carries no matrix: the merge re-derives it from the
    // code. Rewriting a code (and the examined_after and decoded_after
    // that pin it) under a fresh checksum parses cleanly, so the merge's
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
            for (auto &record : shard.records) {
                for (std::int64_t code = lo; code < record.code; code++) {
                    if (!wanted(shard.range.shardIndex, code))
                        continue;
                    record.code = code;
                    record.examinedAfter = code - shard.range.lo + 1;
                    // (The parse requires at least one decoded code.)
                    record.decodedAfter = std::max<std::int64_t>(
                            1, decoder.feasibleBelow(code + 1) -
                                       decoder.feasibleBelow(shard.range.lo));
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

TEST(Records, ForgedDecodedAfterIsRejectedEvenWithAFreshChecksum)
{
    // A record's decoded_after is a function of its code: the feasible
    // codes of its shard up to and including it. One off either way,
    // under a fresh checksum and with every parse-time invariant kept,
    // only the merge's closed-form count can refuse it.
    const auto shards = scanAll(smallConfig(), 2);
    ASSERT_GE(shards[1].records.size(), 2u);
    for (std::int64_t delta : {-1, 1}) {
        SCOPED_TRACE("delta " + std::to_string(delta));
        auto forged = shards;
        forged[1].records.back().decodedAfter += delta;
        forged[1] = accel::parseShardRecords(
                accel::serializeShardRecords(forged[1]));
        expectMergeRefused(std::move(forged), "forged decoded_after",
                           "claims decoded_after");
    }
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
