/**
 * @file
 * In-process tests of the stellar_serve stack below the socket layer:
 * the protocol gauntlet (malformed, truncated, oversized, unknown-field
 * and wrong-typed requests all rejected with classified errors), the
 * response codec round-trip, Server::handleRequestText failure
 * isolation, budget clamping, double-shutdown idempotence, drain
 * semantics, the design-point memo warm path, and the versioned
 * snapshot format with its five corruption modes. The socket + worker
 * pool layers above this are covered by serve_differential_test.cpp.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "serve/commands.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/failure.hpp"
#include "util/logging.hpp"

namespace
{

using namespace stellar;
using serve::Command;
using serve::Request;
using serve::RequestLimits;
using serve::Response;
using serve::Status;

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesFullSimRequest)
{
    Request request = serve::parseRequest(
            "{\"command\":\"sim\",\"workload\":\"outerspace\","
            "\"threads\":4,\"step_budget\":1000,\"time_budget_ms\":250}");
    EXPECT_EQ(request.command, Command::Sim);
    EXPECT_EQ(request.sim.workload, "outerspace");
    EXPECT_EQ(request.sim.threads, 4u);
    EXPECT_EQ(request.sim.stepBudget, 1000);
    EXPECT_EQ(request.sim.timeBudgetMillis, 250);
}

TEST(ServeProtocol, DseDefaultsMatchTheServedContract)
{
    Request request = serve::parseRequest("{\"command\":\"dse\"}");
    EXPECT_EQ(request.command, Command::Dse);
    EXPECT_EQ(request.dse.dim, 8);
    EXPECT_EQ(request.dse.threads, 1u);
    EXPECT_EQ(request.dse.topK, 10u);
    // Served responses must be deterministic: no timings line.
    EXPECT_FALSE(request.dse.timings);
    EXPECT_FALSE(request.dse.retryWallClock);
    EXPECT_FALSE(request.dse.failFast);
}

// `threads` bounds the whole DSE, the coefficient scan included: a
// served request's thread cap and `stellar_cli dse --threads` reach the
// scan workers, not only the evaluation pool.
TEST(ServeProtocol, DseThreadsReachTheScan)
{
    for (std::size_t threads : {0u, 1u, 4u}) {
        serve::DseRequest request;
        request.threads = threads;
        const auto options = serve::dseOptionsFor(request, nullptr);
        EXPECT_EQ(options.threads, threads);
        EXPECT_EQ(options.enumerate.threads, request.threads);
    }
}

TEST(ServeProtocol, ParsesAnalyticTierAndEnumerationFields)
{
    Request request = serve::parseRequest(
            "{\"command\":\"dse\",\"analytic_top_k\":32,\"max_hop\":3,"
            "\"max_coeff\":2,\"enum_limit\":30000}");
    EXPECT_EQ(request.dse.analyticTopK, 32u);
    EXPECT_EQ(request.dse.maxHop, 3);
    EXPECT_EQ(request.dse.maxCoeff, 2);
    EXPECT_EQ(request.dse.enumLimit, 30000u);

    // Omitted fields keep the CLI defaults (tier off, hop-2 space).
    Request defaults = serve::parseRequest("{\"command\":\"dse\"}");
    EXPECT_EQ(defaults.dse.analyticTopK, 0u);
    EXPECT_EQ(defaults.dse.maxHop, 2);
    EXPECT_EQ(defaults.dse.maxCoeff, 1);
    EXPECT_EQ(defaults.dse.enumLimit, 4096u);

    // A typo in the new fields must fail loudly like any other typo.
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"analytic_topk\":32}"),
                 FatalError);
}

TEST(ServeProtocol, RejectsUnknownFieldWithCommandAndOffset)
{
    try {
        serve::parseRequest("{\"command\":\"dse\",\"step_budgets\":5}");
        FAIL() << "typoed field must not be silently ignored";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("unknown field 'step_budgets'"),
                  std::string::npos)
                << what;
        EXPECT_NE(what.find("for command 'dse'"), std::string::npos);
        EXPECT_NE(what.find("at byte"), std::string::npos);
    }
}

TEST(ServeProtocol, RejectsFieldsFromTheWrongCommand)
{
    // `dim` is dse-only; a sim request carrying it is a user error.
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"sim\",\"dim\":4}"),
                 FatalError);
    // `workload` is sim-only.
    EXPECT_THROW(serve::parseRequest("{\"command\":\"dse\","
                                     "\"workload\":\"scnn\"}"),
                 FatalError);
    // stats and shutdown take no fields at all.
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"stats\",\"threads\":1}"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"shutdown\",\"now\":true}"),
                 FatalError);
}

TEST(ServeProtocol, RejectsMalformedAndTruncatedRequests)
{
    for (const char *text : {
                 "",                        // empty
                 "   ",                     // whitespace only
                 "not json",                // not JSON at all
                 "{\"command\":\"sim\"",    // truncated mid-object
                 "{\"command\":\"sim\",}",  // trailing comma
                 "[\"command\",\"sim\"]",   // not an object
                 "{}",                      // no command
                 "{\"command\":\"simm\"}",  // unknown command
                 "{\"command\":42}",        // wrong-typed command
                 "{\"command\":\"dse\",\"dim\":\"eight\"}", // wrong type
                 "{\"command\":\"dse\",\"dim\":4.5}",  // non-integral
                 "{\"command\":\"dse\",\"dim\":0}",    // below range
                 "{\"command\":\"dse\",\"threads\":-1}",
                 "{\"command\":\"sim\",\"step_budget\":-5}",
                 "{\"command\":\"dse\",\"analytic_top_k\":-1}",
                 "{\"command\":\"dse\",\"max_hop\":0}",
                 "{\"command\":\"dse\",\"max_coeff\":0}",
                 "{\"command\":\"dse\",\"enum_limit\":0}",
         }) {
        EXPECT_THROW(serve::parseRequest(text), FatalError) << text;
    }
}

TEST(ServeProtocol, EnforcesProtocolCaps)
{
    RequestLimits limits;
    limits.maxDim = 8;
    limits.maxThreads = 4;
    limits.maxTopK = 16;
    EXPECT_NO_THROW(serve::parseRequest(
            "{\"command\":\"dse\",\"dim\":8,\"threads\":4,\"topk\":16}",
            limits));
    EXPECT_THROW(serve::parseRequest("{\"command\":\"dse\",\"dim\":9}",
                                     limits),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"threads\":5}", limits),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"topk\":17}", limits),
                 FatalError);

    // The analytic tier and enumeration knobs carry their own caps:
    // analytic K is allowed to exceed the final-ranking topK cap, and
    // hop/coeff/limit bound the enumerated space a request can demand.
    limits.maxAnalyticTopK = 64;
    limits.maxHop = 3;
    limits.maxCoeff = 2;
    limits.maxEnumerated = 30000;
    EXPECT_NO_THROW(serve::parseRequest(
            "{\"command\":\"dse\",\"analytic_top_k\":64,\"max_hop\":3,"
            "\"max_coeff\":2,\"enum_limit\":30000}",
            limits));
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"analytic_top_k\":65}",
                         limits),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"max_hop\":4}", limits),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"max_coeff\":3}", limits),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"enum_limit\":30001}",
                         limits),
                 FatalError);
}

TEST(ServeProtocol, RejectsRemovedStreamAndPrepassFields)
{
    // The DSE has one front half, so the old "stream" toggle and the
    // "prepass" proxy tier are gone from the wire: like any other
    // unknown field they are rejected, never silently ignored.
    for (const char *text : {"{\"command\":\"dse\",\"stream\":true}",
                             "{\"command\":\"dse\",\"stream\":false}",
                             "{\"command\":\"dse\",\"prepass\":0}",
                             "{\"command\":\"dse\",\"prepass\":24}"}) {
        SCOPED_TRACE(text);
        EXPECT_THROW(serve::parseRequest(text), FatalError);
    }
}

TEST(ServeProtocol, RejectsScansBeyondTheCodeBudget)
{
    // The per-field maxCoeff cap admits 4, but (2*4+1)^9 = 387M codes
    // exceeds the 1e8 admission budget on scan size, so the request is
    // rejected at parse time — before any enumeration work starts.
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"max_coeff\":4}"),
                 FatalError);
    // (2*3+1)^9 = 40.4M codes: admitted.
    EXPECT_NO_THROW(serve::parseRequest(
            "{\"command\":\"dse\",\"max_coeff\":3}"));
    try {
        serve::parseRequest("{\"command\":\"dse\",\"max_coeff\":4}");
        FAIL() << "over-budget scan must be rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("coefficient codes"),
                  std::string::npos)
                << err.what();
    }
    // A tighter server budget bites even at small coefficient ranges.
    RequestLimits limits;
    limits.maxScanCodes = 10000;
    EXPECT_THROW(serve::parseRequest(
                         "{\"command\":\"dse\",\"max_coeff\":1}", limits),
                 FatalError);
}

TEST(ServeProtocol, RejectsOversizedRequests)
{
    RequestLimits limits;
    limits.maxBytes = 64;
    std::string text = "{\"command\":\"sim\",\"workload\":\"" +
                       std::string(100, 'x') + "\"}";
    ASSERT_GT(text.size(), limits.maxBytes);
    EXPECT_THROW(serve::parseRequest(text, limits), FatalError);
}

TEST(ServeProtocol, ResponseRoundTripsEveryStatus)
{
    Response ok;
    ok.status = Status::Ok;
    ok.exitCode = 1;
    ok.output = "line one\nline \"two\"\n";
    Response back = serve::parseResponse(serve::serializeResponse(ok));
    EXPECT_EQ(back.status, Status::Ok);
    EXPECT_EQ(back.exitCode, 1);
    EXPECT_EQ(back.output, ok.output);

    Response error;
    error.status = Status::Error;
    error.failure.kind = util::FailureKind::Timeout;
    error.failure.stage = "serve.request";
    error.failure.candidate = "enum#7";
    error.failure.message = "deadline blown";
    back = serve::parseResponse(serve::serializeResponse(error));
    EXPECT_EQ(back.status, Status::Error);
    EXPECT_EQ(back.failure.kind, util::FailureKind::Timeout);
    EXPECT_EQ(back.failure.stage, "serve.request");
    EXPECT_EQ(back.failure.candidate, "enum#7");
    EXPECT_EQ(back.failure.message, "deadline blown");

    Response overloaded;
    overloaded.status = Status::Overloaded;
    overloaded.retryAfterMillis = 75;
    back = serve::parseResponse(serve::serializeResponse(overloaded));
    EXPECT_EQ(back.status, Status::Overloaded);
    EXPECT_EQ(back.retryAfterMillis, 75);

    Response draining;
    draining.status = Status::ShuttingDown;
    back = serve::parseResponse(serve::serializeResponse(draining));
    EXPECT_EQ(back.status, Status::ShuttingDown);
}

TEST(ServeProtocol, ResponseParserRejectsUnknownStatusAndKind)
{
    EXPECT_THROW(serve::parseResponse("{\"status\":\"maybe\"}"),
                 FatalError);
    EXPECT_THROW(serve::parseResponse(
                         "{\"status\":\"error\",\"failure\":{"
                         "\"kind\":\"mystery\"}}"),
                 FatalError);
    EXPECT_THROW(serve::parseResponse("{\"status\":\"error\"}"),
                 FatalError);
    EXPECT_THROW(serve::parseResponse("gibberish"), FatalError);
}

// ------------------------------------------------------- handleRequestText

TEST(ServeServer, MalformedRequestBecomesClassifiedErrorNotThrow)
{
    serve::Server server;
    for (const char *text :
         {"", "nope", "{\"command\":\"dse\",\"bogus\":1}",
          "{\"command\":\"sim\",\"workload\":\"bogus\"}"}) {
        std::string reply = server.handleRequestText(text);
        Response response = serve::parseResponse(reply);
        EXPECT_EQ(response.status, Status::Error) << text;
        EXPECT_EQ(response.failure.kind, util::FailureKind::UserSpec)
                << text;
        EXPECT_EQ(response.failure.stage, "serve.request");
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.errors, 4u);
    EXPECT_EQ(stats.errorsByKind[std::size_t(
                      util::FailureKind::UserSpec)],
              4u);
    EXPECT_EQ(stats.errorsByKind[std::size_t(
                      util::FailureKind::Unknown)],
              0u);
}

TEST(ServeServer, DseRequestMatchesDirectRendererByteForByte)
{
    serve::Server server;
    Response response = serve::parseResponse(server.handleRequestText(
            "{\"command\":\"dse\",\"dim\":3,\"threads\":2}"));
    ASSERT_EQ(response.status, Status::Ok);

    serve::DseRequest reference;
    reference.dim = 3;
    reference.threads = 2;
    auto direct = serve::renderDse(reference);
    EXPECT_EQ(response.output, direct.output);
    EXPECT_EQ(response.exitCode, direct.exitCode);
}

TEST(ServeServer, AnalyticTopKServedMatchesDirectRendererByteForByte)
{
    // The analytic tier must not disturb served-vs-CLI byte-identity —
    // and because its scores are exact, the served ranking with the
    // tier on equals the served ranking with it off.
    serve::Server server;
    Response tiered = serve::parseResponse(server.handleRequestText(
            "{\"command\":\"dse\",\"dim\":4,\"analytic_top_k\":8,"
            "\"topk\":8}"));
    ASSERT_EQ(tiered.status, Status::Ok);

    serve::DseRequest reference;
    reference.dim = 4;
    reference.analyticTopK = 8;
    reference.topK = 8;
    auto direct = serve::renderDse(reference);
    EXPECT_EQ(tiered.output, direct.output);
    EXPECT_EQ(tiered.exitCode, direct.exitCode);

    // Same request with the tier disabled: identical ranking table,
    // differing only in the stats counters headline.
    reference.analyticTopK = 0;
    auto full = serve::renderDse(reference);
    EXPECT_NE(tiered.output, full.output); // headline shows the filter
    auto table = [](const std::string &text) {
        return text.substr(0, text.find("\nexplored "));
    };
    EXPECT_EQ(table(tiered.output), table(full.output));
}

TEST(ServeServer, ServerBudgetCapClampsRequests)
{
    // A 1-step cap makes every candidate blow its watchdog budget; the
    // request still completes (failures are recorded, not fatal) and
    // ranks nothing.
    serve::ServeOptions options;
    options.maxStepBudget = 1;
    serve::Server server(options);
    // step_budget 0 would mean "unlimited"; the cap must still bind.
    Response response = serve::parseResponse(server.handleRequestText(
            "{\"command\":\"dse\",\"dim\":3,\"step_budget\":0}"));
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.exitCode, 1) << response.output;
    EXPECT_NE(response.output.find("0 evaluated"), std::string::npos)
            << response.output;
    EXPECT_NE(response.output.find("timeout"), std::string::npos)
            << response.output;
    auto stats = server.stats();
    EXPECT_GT(stats.dseFailed, 0u);
    EXPECT_EQ(stats.dseEvaluated, 0u);
}

TEST(ServeServer, StatsEndpointReportsAllSections)
{
    serve::Server server;
    serve::parseResponse(server.handleRequestText(
            "{\"command\":\"dse\",\"dim\":2}"));
    Response response = serve::parseResponse(
            server.handleRequestText("{\"command\":\"stats\"}"));
    ASSERT_EQ(response.status, Status::Ok);
    for (const char *key :
         {"\"serve\":", "\"design_memo\":", "\"workload_cache\":",
          "\"errors_by_kind\":", "\"dse\":"}) {
        EXPECT_NE(response.output.find(key), std::string::npos) << key;
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.dseRequests, 1u);
    EXPECT_EQ(stats.statsRequests, 1u);
    EXPECT_GT(stats.dseEnumerated, 0u);
}

TEST(ServeServer, DoubleShutdownIsIdempotentAndDrainsWork)
{
    serve::Server server;
    Response first = serve::parseResponse(
            server.handleRequestText("{\"command\":\"shutdown\"}"));
    EXPECT_EQ(first.status, Status::Ok);
    EXPECT_EQ(first.output, "draining\n");
    EXPECT_TRUE(server.draining());

    // Asking again is ok, not an error.
    Response second = serve::parseResponse(
            server.handleRequestText("{\"command\":\"shutdown\"}"));
    EXPECT_EQ(second.status, Status::Ok);

    // Work queued behind the drain is answered, never dropped.
    Response work = serve::parseResponse(server.handleRequestText(
            "{\"command\":\"sim\",\"workload\":\"scnn\"}"));
    EXPECT_EQ(work.status, Status::ShuttingDown);

    // The stats endpoint keeps answering through a drain.
    Response stats = serve::parseResponse(
            server.handleRequestText("{\"command\":\"stats\"}"));
    EXPECT_EQ(stats.status, Status::Ok);
    EXPECT_EQ(server.stats().drained, 1u);
}

TEST(ServeServer, MemoMakesRepeatDseByteIdenticalAndWarm)
{
    serve::Server server;
    const std::string request = "{\"command\":\"dse\",\"dim\":3}";
    Response cold = serve::parseResponse(server.handleRequestText(request));
    ASSERT_EQ(cold.status, Status::Ok);
    auto after_cold = server.memo().stats();
    EXPECT_GT(after_cold.inserts, 0u);
    EXPECT_EQ(after_cold.hits, 0u);

    Response warm = serve::parseResponse(server.handleRequestText(request));
    ASSERT_EQ(warm.status, Status::Ok);
    EXPECT_EQ(warm.output, cold.output);
    auto after_warm = server.memo().stats();
    EXPECT_EQ(after_warm.inserts, after_cold.inserts);
    EXPECT_GT(after_warm.hits, 0u);
}

// -------------------------------------------------------------- snapshots

/** Populate a memo with a real (small) exploration. The memo holds
 *  mutex-guarded shards, so it is filled in place, never moved. */
void
populateMemo(accel::DesignPointMemo &memo)
{
    serve::DseRequest request;
    request.dim = 3;
    serve::renderDse(request, &memo);
}

TEST(ServeSnapshot, RoundTripRestoresEveryEntry)
{
    accel::DesignPointMemo memo;
    populateMemo(memo);
    auto before = memo.stats();
    ASSERT_GT(before.entries, 0u);

    std::string text = serve::serializeSnapshot(memo);
    accel::DesignPointMemo restored;
    EXPECT_EQ(serve::loadSnapshot(restored, text), before.entries);
    EXPECT_EQ(restored.stats().entries, before.entries);

    // The restored memo serves the same bytes the live one did.
    serve::DseRequest request;
    request.dim = 3;
    auto from_live = serve::renderDse(request, &memo);
    auto from_restored = serve::renderDse(request, &restored);
    EXPECT_EQ(from_live.output, from_restored.output);
    // And it actually served from memory: every lookup hit.
    EXPECT_EQ(restored.stats().misses, 0u);
    EXPECT_GT(restored.stats().hits, 0u);
}

TEST(ServeSnapshot, EveryCorruptionModeIsRejectedClassified)
{
    accel::DesignPointMemo memo;
    populateMemo(memo);
    std::string text = serve::serializeSnapshot(memo);
    for (auto mode : {serve::SnapshotCorruption::TruncateTail,
                      serve::SnapshotCorruption::FlipByte,
                      serve::SnapshotCorruption::VersionBump,
                      serve::SnapshotCorruption::ChecksumClobber,
                      serve::SnapshotCorruption::GarbageHeader}) {
        std::string corrupted = serve::corruptSnapshot(text, mode);
        ASSERT_NE(corrupted, text) << int(mode);
        accel::DesignPointMemo victim;
        bool threw = false;
        try {
            serve::loadSnapshot(victim, corrupted);
        } catch (...) {
            threw = true;
            auto failure =
                    util::classifyException(std::current_exception());
            EXPECT_NE(failure.kind, util::FailureKind::Unknown)
                    << int(mode);
        }
        EXPECT_TRUE(threw) << "corruption mode " << int(mode)
                           << " loaded silently";
        // Validate-then-insert: a rejected snapshot loads *nothing*.
        EXPECT_EQ(victim.stats().entries, 0u) << int(mode);
    }
}

TEST(ServeSnapshot, FileRoundTripAndMissingFileIsColdStart)
{
    auto dir = std::filesystem::temp_directory_path() /
               "stellar_serve_snapshot_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = (dir / "memo.json").string();

    accel::DesignPointMemo missing;
    EXPECT_EQ(serve::loadSnapshotFile(missing, path), 0u);

    accel::DesignPointMemo memo;
    populateMemo(memo);
    serve::saveSnapshotFile(memo, path);
    accel::DesignPointMemo restored;
    EXPECT_EQ(serve::loadSnapshotFile(restored, path),
              memo.stats().entries);
    std::filesystem::remove_all(dir);
}

TEST(ServeSnapshot, ServerStartsColdOnCorruptSnapshotFile)
{
    auto dir = std::filesystem::temp_directory_path() /
               "stellar_serve_corrupt_snapshot_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = (dir / "memo.json").string();
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"version\":1,\"kind\":\"stellar-design-memo\","
                   "\"checksum\":\"0\",\"entries\":[}",
                   f);
        std::fclose(f);
    }
    accel::DesignPointMemo memo;
    EXPECT_THROW(serve::loadSnapshotFile(memo, path), FatalError);
    EXPECT_EQ(memo.stats().entries, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
