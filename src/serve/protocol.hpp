/**
 * @file
 * The stellar_serve wire protocol.
 *
 * One JSON request per connection, mirroring the `stellar_cli sim|dse`
 * flags field-for-field, and one JSON response. Requests come from an
 * untrusted peer, so parsing is a validation gauntlet: the shared
 * util::json parser enforces syntax with byte offsets, and this layer
 * enforces the schema — known commands, known fields (unknown fields
 * are *rejected*, not ignored: a typoed field silently ignored is a
 * sweep run with the wrong budget), integral ranges, and protocol-level
 * caps on dimensions and thread counts so a hostile request cannot ask
 * for an astronomically large exploration outright.
 *
 * Every violation raises FatalError, which the server classifies as a
 * UserSpec failure and returns as a structured `error` response.
 *
 * Requests:
 *   {"command":"sim","workload":"scnn","threads":2,
 *    "step_budget":0,"time_budget_ms":0}
 *   {"command":"dse","dim":8,"threads":2,"topk":10,"max_pes":0,
 *    "analytic_top_k":0,"max_hop":2,"max_coeff":1,
 *    "enum_limit":4096,"step_budget":0,"time_budget_ms":0,
 *    "retry_wall_clock":false,"fail_fast":false,"timings":false}
 *   {"command":"stats"}
 *   {"command":"shutdown"}
 *
 * Responses:
 *   {"status":"ok","exit_code":0,"output":"..."}
 *   {"status":"error","failure":{"kind":"user-spec","stage":"...",
 *    "candidate":"...","message":"..."}}
 *   {"status":"overloaded","retry_after_ms":50}
 *   {"status":"shutting_down"}
 */

#ifndef STELLAR_SERVE_PROTOCOL_HPP
#define STELLAR_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "util/failure.hpp"

namespace stellar::serve
{

enum class Command
{
    Sim,
    Dse,
    Stats,
    Shutdown,
};

/** Mirror of `stellar_cli sim` flags. */
struct SimRequest
{
    std::string workload = "scnn";
    std::size_t threads = 1;
    std::int64_t stepBudget = 0;
    std::int64_t timeBudgetMillis = 0;
};

/** Mirror of `stellar_cli dse` flags. */
struct DseRequest
{
    int dim = 8;
    std::size_t threads = 1;
    std::size_t topK = 10;
    std::int64_t maxPes = 0;

    /** DseOptions::analyticTopK: closed-form tier, 0 = disabled. */
    std::size_t analyticTopK = 0;

    /** Enumeration controls (EnumerateOptions defaults): hop budget,
     *  symmetric coefficient range, and the candidate cap. These are
     *  what open the hop-3 spaces the analytic tier exists for. */
    int maxHop = 2;
    int maxCoeff = 1;
    std::size_t enumLimit = 4096;
    std::int64_t stepBudget = 0;
    std::int64_t timeBudgetMillis = 0;
    bool retryWallClock = false;
    bool failFast = false;

    /** Include the wall-time line of dseStatsReport (the CLI default);
     *  served requests default to false so responses are deterministic
     *  and byte-comparable. Matches `stellar_cli dse --no-timings`. */
    bool timings = false;
};

/** One parsed, validated request. */
struct Request
{
    Command command = Command::Sim;
    SimRequest sim;
    DseRequest dse;
};

/**
 * Protocol-level caps applied at parse time; anything beyond them is a
 * UserSpec rejection before a single cycle of work is admitted. These
 * bound what a request may *ask*; the server separately clamps watchdog
 * budgets (ServeOptions) to bound what an admitted request may *spend*.
 */
struct RequestLimits
{
    std::size_t maxBytes = 1 << 20; //!< max request size on the wire
    int maxDim = 64;
    std::size_t maxThreads = 64;
    std::size_t maxTopK = 4096;

    /** Analytic-tier survivor cap: the tier itself is cheap, but every
     *  survivor is a full elaboration, so this bounds admitted work the
     *  same way maxTopK does. */
    std::size_t maxAnalyticTopK = 1 << 16;

    /** Enumeration caps: hop budget, coefficient magnitude, and the
     *  enumerated-candidate ceiling a request may ask for. */
    int maxHop = 6;
    int maxCoeff = 4;
    std::size_t maxEnumerated = 1 << 20;

    /** Cap on the coefficient-code space a dse request may scan
     *  ((2*maxCoeff+1)^9 for the 3-iterator matmul spec). The orbit-
     *  canonical scan walks ~1e8 codes in seconds, but admission stays
     *  explicit: a request whose space exceeds this is rejected at
     *  parse time instead of burning a worker. */
    std::int64_t maxScanCodes = 100000000;
};

/** Parse + validate one request. FatalError on any violation. */
Request parseRequest(const std::string &text,
                     const RequestLimits &limits = {});

/** Response statuses (the closed set the soak invariant checks). */
enum class Status
{
    Ok,
    Error,
    Overloaded,
    ShuttingDown,
};

const char *statusName(Status status);

struct Response
{
    Status status = Status::Ok;
    int exitCode = 0;          //!< ok: what the CLI would have exited
    std::string output;        //!< ok: byte-identical CLI stdout
    util::Failure failure;     //!< error: the classified cause
    std::int64_t retryAfterMillis = 0; //!< overloaded: backoff hint
};

std::string serializeResponse(const Response &response);

/** Parse a response (clients, tests, and the soak validator).
 *  FatalError on malformed text or an unknown status/kind. */
Response parseResponse(const std::string &text);

} // namespace stellar::serve

#endif // STELLAR_SERVE_PROTOCOL_HPP
