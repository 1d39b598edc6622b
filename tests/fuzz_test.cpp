/**
 * @file
 * Tier-1 smoke of the hostile-input fuzz harness plus self-tests of its
 * machinery: the invariant run (every seeded input succeeds or degrades
 * to a classified util::Failure), the outcome accounting, determinism,
 * the line minimizer, and the violation -> minimize -> repro-dump path
 * driven through the mtxOracle test hook. The long soak (2k iterations
 * under ASan+UBSan) lives in CI's `fuzz` job and
 * scripts/check_matrix.sh --fuzz-smoke; this file keeps the counts
 * small enough for tier-1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "testkit/fuzz.hpp"
#include "util/failure.hpp"

namespace
{

using namespace stellar;
using fuzz::FuzzDomain;
using fuzz::FuzzOptions;
using fuzz::FuzzReport;

std::size_t
classifiedTotal(const FuzzReport &report)
{
    return std::accumulate(report.outcomes.begin(), report.outcomes.end(),
                           std::size_t(0));
}

TEST(Fuzz, InvariantHoldsAcrossAllDomains)
{
    FuzzOptions options;
    options.iterations = 150;
    options.seed = 1;
    auto report = fuzz::runFuzz(options);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.iterations, 150u);
    // Every iteration lands in exactly one bucket.
    EXPECT_EQ(report.succeeded + classifiedTotal(report),
              report.iterations);
    // Unknown outcomes and violations are the same event.
    EXPECT_EQ(report.outcomes[std::size_t(util::FailureKind::Unknown)],
              report.violations.size());
}

TEST(Fuzz, InvariantHoldsPerDomain)
{
    for (auto domain : {FuzzDomain::Spec, FuzzDomain::Transform,
                        FuzzDomain::MatrixMarket, FuzzDomain::Request,
                        FuzzDomain::Enumerate, FuzzDomain::Records}) {
        FuzzOptions options;
        options.iterations = 60;
        options.seed = 7;
        options.domains = {domain};
        auto report = fuzz::runFuzz(options);
        EXPECT_TRUE(report.ok())
                << fuzz::fuzzDomainName(domain) << ": "
                << report.toString();
        EXPECT_EQ(report.succeeded + classifiedTotal(report),
                  report.iterations)
                << fuzz::fuzzDomainName(domain);
    }
}

TEST(Fuzz, SameSeedIsDeterministic)
{
    FuzzOptions options;
    options.iterations = 40;
    options.seed = 99;
    auto a = fuzz::runFuzz(options);
    auto b = fuzz::runFuzz(options);
    EXPECT_EQ(a.succeeded, b.succeeded);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Fuzz, DifferentSeedsExploreDifferentInputs)
{
    FuzzOptions options;
    options.iterations = 80;
    options.seed = 1;
    auto a = fuzz::runFuzz(options);
    options.seed = 2;
    auto b = fuzz::runFuzz(options);
    // Not a hard guarantee for tiny runs, but with 80 mixed inputs the
    // outcome tallies collide only if the generator ignores the seed.
    EXPECT_NE(a.outcomes, b.outcomes);
}

TEST(Fuzz, MinimizeLinesReachesFixedPoint)
{
    // 40 filler lines around one marker; the predicate needs the marker.
    std::string input;
    for (int i = 0; i < 20; i++)
        input += "filler " + std::to_string(i) + "\n";
    input += "MARKER\n";
    for (int i = 20; i < 40; i++)
        input += "filler " + std::to_string(i) + "\n";

    auto still_fails = [](const std::string &text) {
        return text.find("MARKER") != std::string::npos;
    };
    auto minimized = fuzz::minimizeLines(input, still_fails);
    EXPECT_TRUE(still_fails(minimized));
    EXPECT_EQ(minimized, "MARKER\n");
}

TEST(Fuzz, MinimizeLinesKeepsFailingInputWhenIrreducible)
{
    auto still_fails = [](const std::string &text) {
        // Fails only with both halves present.
        return text.find("alpha") != std::string::npos &&
               text.find("omega") != std::string::npos;
    };
    auto minimized =
            fuzz::minimizeLines("alpha\nmiddle\nomega\n", still_fails);
    EXPECT_TRUE(still_fails(minimized));
    EXPECT_EQ(minimized, "alpha\nomega\n");
}

TEST(Fuzz, OracleViolationIsMinimizedAndDumped)
{
    auto dir = std::filesystem::temp_directory_path() /
               "stellar_fuzz_test_repros";
    std::filesystem::remove_all(dir);

    FuzzOptions options;
    options.iterations = 6;
    options.seed = 3;
    options.domains = {FuzzDomain::MatrixMarket};
    options.reproDir = dir.string();
    // Plant an unclassified throw for any generated input: every mtx
    // iteration becomes a violation exercising minimize + dump.
    options.mtxOracle = [](const std::string &text) {
        if (!text.empty())
            throw std::runtime_error("planted unclassified failure");
    };
    auto report = fuzz::runFuzz(options);

    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.violations.size(), 6u);
    EXPECT_EQ(report.outcomes[std::size_t(util::FailureKind::Unknown)],
              6u);
    for (const auto &violation : report.violations) {
        EXPECT_EQ(violation.domain, FuzzDomain::MatrixMarket);
        EXPECT_EQ(violation.failure.kind, util::FailureKind::Unknown);
        // Minimizer ran: the oracle fails on any non-empty text, so the
        // fixed point is a single line.
        EXPECT_FALSE(violation.input.empty());
        EXPECT_LE(std::count(violation.input.begin(),
                             violation.input.end(), '\n'),
                  1);
        // The dump exists and holds exactly the minimized input.
        ASSERT_FALSE(violation.reproPath.empty());
        std::ifstream in(violation.reproPath, std::ios::binary);
        ASSERT_TRUE(in.good()) << violation.reproPath;
        std::stringstream buffer;
        buffer << in.rdbuf();
        EXPECT_EQ(buffer.str(), violation.input);
    }
    std::filesystem::remove_all(dir);
}

TEST(Fuzz, OracleClassifiedFailureIsNotAViolation)
{
    FuzzOptions options;
    options.iterations = 5;
    options.seed = 4;
    options.domains = {FuzzDomain::MatrixMarket};
    // A FatalError is a classified (UserSpec) degradation — exactly the
    // contract; the invariant holds.
    options.mtxOracle = [](const std::string &) {
        throw FatalError("classified rejection");
    };
    auto report = fuzz::runFuzz(options);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.outcomes[std::size_t(util::FailureKind::UserSpec)],
              5u);
    EXPECT_EQ(report.succeeded, 0u);
}

TEST(Fuzz, RequestOracleGibberishIsAViolation)
{
    // A reply that is not a parseable response is itself the invariant
    // breach — the harness must surface it as an Unknown violation.
    FuzzOptions options;
    options.iterations = 3;
    options.seed = 11;
    options.domains = {FuzzDomain::Request};
    options.requestOracle = [](const std::string &) {
        return std::string("not a response");
    };
    auto report = fuzz::runFuzz(options);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.violations.size(), 3u);
    EXPECT_EQ(report.outcomes[std::size_t(util::FailureKind::Unknown)],
              3u);
}

TEST(Fuzz, RequestOracleUnknownKindIsAViolation)
{
    // A well-formed error response whose failure kind is `unknown` is
    // the soak invariant's other breach mode.
    FuzzOptions options;
    options.iterations = 2;
    options.seed = 12;
    options.domains = {FuzzDomain::Request};
    options.requestOracle = [](const std::string &) {
        return std::string(
                "{\"status\":\"error\",\"failure\":{\"kind\":"
                "\"unknown\",\"stage\":\"s\",\"candidate\":\"\","
                "\"message\":\"m\"}}");
    };
    auto report = fuzz::runFuzz(options);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.violations.size(), 2u);
}

TEST(Fuzz, RequestOracleClassifiedErrorIsNotAViolation)
{
    FuzzOptions options;
    options.iterations = 4;
    options.seed = 13;
    options.domains = {FuzzDomain::Request};
    options.requestOracle = [](const std::string &) {
        return std::string(
                "{\"status\":\"error\",\"failure\":{\"kind\":"
                "\"user-spec\",\"stage\":\"serve.request\","
                "\"candidate\":\"\",\"message\":\"rejected\"}}");
    };
    auto report = fuzz::runFuzz(options);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.outcomes[std::size_t(util::FailureKind::UserSpec)],
              4u);
}

TEST(Fuzz, ReportToStringNamesEveryBucket)
{
    FuzzOptions options;
    options.iterations = 30;
    options.seed = 1;
    auto report = fuzz::runFuzz(options);
    auto text = report.toString();
    EXPECT_NE(text.find("30 iterations"), std::string::npos);
    EXPECT_NE(text.find("user-spec"), std::string::npos);
    EXPECT_NE(text.find("timeout"), std::string::npos);
    EXPECT_NE(text.find("violations"), std::string::npos);
}

} // namespace
