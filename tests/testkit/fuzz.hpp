/**
 * @file
 * Seeded structured fuzzing of the framework's untrusted surfaces.
 *
 * The exploration stack promises that *any* input — a malformed
 * functional spec, a singular transform, a hostile Matrix Market file —
 * either succeeds or degrades to a classified util::Failure; it must
 * never crash, trip a sanitizer, or leak an unclassified exception.
 * This harness generates seeded random inputs across six domains,
 * replays them against generatePipelineIsolated, the transform algebra,
 * the Matrix Market reader + sims, an in-process serve::Server, the
 * streaming transform enumerator (differenced against its serial
 * oracle), and the shard-records codec (valid documents mutilated
 * through the parser and merge) under WatchdogScope budgets, and
 * records every outcome against that invariant. Classification to
 * FailureKind::Unknown is the invariant breach: the offending input is
 * minimized (line-wise, for textual inputs) and dumped as a repro file.
 *
 * Deterministic by construction: iteration i of seed s always replays
 * the same input, so a repro needs only (domain, seed) — the dumped
 * file is a convenience, not the only record.
 *
 * Drivers: examples/stellar_fuzz.cpp (CLI; CI runs it under ASan+UBSan)
 * and tests/fuzz_test.cpp (tier-1 smoke + harness self-tests). The
 * harness is part of the stellar_testkit library, not of libstellar.
 */

#ifndef STELLAR_TESTKIT_FUZZ_HPP
#define STELLAR_TESTKIT_FUZZ_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/failure.hpp"
#include "util/rng.hpp"

namespace stellar::fuzz
{

/** Input families the harness can generate. */
enum class FuzzDomain
{
    Spec,         //!< random functional specs + bounds through the pipeline
    Transform,    //!< random space-time transform matrices + probes
    MatrixMarket, //!< corrupted .mtx texts through the reader + sims
    Request,      //!< hostile serve requests through serve::Server
    Enumerate,    //!< hostile enumeration options vs the serial oracle
    Records,      //!< mutilated shard-records docs through parse + merge
};

/** Stable short name ("spec", "transform", "mtx", "request",
 *  "enumerate", "records"). */
const char *fuzzDomainName(FuzzDomain domain);

/** Harness settings. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::size_t iterations = 1000;

    /** Domains to cycle through (round-robin); empty = all six. */
    std::vector<FuzzDomain> domains;

    /** Watchdog step budget per replay (0 = unlimited). */
    std::int64_t stepBudget = 200000;

    /** Watchdog wall-clock deadline per replay in ms (0 = none). */
    std::int64_t timeBudgetMillis = 0;

    /** Directory for repro dumps of violating inputs; empty = no dumps
     *  (the violation still records the full input text). */
    std::string reproDir;

    /** Line-minimize violating textual inputs before dumping. */
    bool minimize = true;

    /**
     * Test hook: replaces the default MatrixMarket evaluator (parse,
     * convert, simulate) so harness self-tests can plant a deliberate
     * unclassified throw and watch the find -> minimize -> dump path
     * run end to end. Production leaves this unset.
     */
    std::function<void(const std::string &)> mtxOracle;

    /**
     * Test hook for the Request domain: given one request text, return
     * the raw response text. Unset, the harness routes requests through
     * a private in-process serve::Server (shared across the run, so a
     * request that poisons server state surfaces in later iterations).
     */
    std::function<std::string(const std::string &)> requestOracle;
};

/** One input that broke the fuzz invariant (classified Unknown). */
struct FuzzViolation
{
    FuzzDomain domain = FuzzDomain::Spec;
    std::size_t iteration = 0;
    std::uint64_t seed = 0; //!< derived per-iteration seed
    util::Failure failure;
    std::string input;     //!< offending input text (minimized if enabled)
    std::string reproPath; //!< dump location ("" when reproDir unset)
};

/** Outcome tally of one runFuzz call. */
struct FuzzReport
{
    std::size_t iterations = 0;
    std::size_t succeeded = 0;

    /** Classified failures by FailureKind. Unknown entries are also
     *  recorded as violations — any nonzero count there is a bug. */
    std::array<std::size_t, util::kFailureKindCount> outcomes{};

    std::vector<FuzzViolation> violations;

    /** The invariant held: no unclassified outcome. */
    bool ok() const { return violations.empty(); }

    /** One-line human summary. */
    std::string toString() const;
};

/** Run the harness. Never throws for input-induced failures; only a
 *  broken harness configuration (e.g. unwritable reproDir) raises. */
FuzzReport runFuzz(const FuzzOptions &options);

/**
 * Greedy delta-debugging line minimizer: repeatedly drop chunks of
 * lines while `still_fails` keeps returning true, ending at a
 * fixed point (or a call cap). Exposed for the harness self-tests.
 */
std::string
minimizeLines(const std::string &input,
              const std::function<bool(const std::string &)> &still_fails);

/**
 * One seeded serve-protocol request text: mostly structured sim / dse /
 * stats requests with occasionally-hostile field values (absurd dims,
 * zero budgets, unknown fields, wrong types), the rest textual attacks
 * on a valid request (byte flips, truncation, garbage, deep nesting,
 * oversize padding). `allow_shutdown` admits `{"command":"shutdown"}`
 * into the mix — the live-daemon soak keeps it out so the target stays
 * up for the whole storm. Shared by the Request fuzz domain and the
 * `stellar_fuzz --soak` driver.
 */
std::string randomServeRequestText(Rng &rng, bool allow_shutdown);

} // namespace stellar::fuzz

#endif // STELLAR_TESTKIT_FUZZ_HPP
