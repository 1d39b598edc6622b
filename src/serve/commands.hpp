/**
 * @file
 * The sim/dse command implementations shared by stellar_cli and the
 * serve daemon.
 *
 * Byte-identity of a served response versus the one-shot CLI is the
 * serve correctness contract; the only way to keep that contract
 * trivially true is for both front ends to call the *same* renderer
 * and treat its string as the output. stellar_cli printf()s it to
 * stdout; the daemon ships it inside an `ok` response.
 *
 * Renderers throw on invalid inputs (FatalError) and on budget expiry
 * (TimeoutError out of the watchdogs); the CLI's top-level catch turns
 * that into `error: ...` on stderr, the server classifies it into a
 * structured error response.
 */

#ifndef STELLAR_SERVE_COMMANDS_HPP
#define STELLAR_SERVE_COMMANDS_HPP

#include <string>
#include <vector>

#include "accel/dse.hpp"
#include "accel/records.hpp"
#include "serve/protocol.hpp"

namespace stellar::serve
{

/** A rendered command: the CLI exit code and its exact stdout bytes. */
struct RenderResult
{
    int exitCode = 0;
    std::string output;

    /** The exploration counters (dse only), for the stats endpoint. */
    accel::DseStats dseStats;
};

/**
 * `stellar_cli sim`: sweep a cycle simulator over its workload suite
 * through sim::runMany. Synthesis goes through workloads::Cache, so a
 * warm daemon skips it; output is byte-identical warm or cold.
 * FatalError on an unknown workload.
 */
RenderResult renderSim(const SimRequest &request);

/**
 * `stellar_cli dse`: explore matmul dataflows at the requested dim.
 * When `memo` is non-null every scored candidate round-trips through
 * the cross-call design-point memo (rankings byte-identical warm or
 * cold). Exit code 1 when nothing was evaluated, as the CLI does.
 */
RenderResult renderDse(const DseRequest &request,
                       accel::DesignPointMemo *memo = nullptr);

/** The DseOptions a DseRequest maps to (exposed for differential
 *  tests that call exploreDataflows directly). */
accel::DseOptions dseOptionsFor(const DseRequest &request,
                                accel::DesignPointMemo *memo);

/**
 * `stellar_cli dse --shard i/N --emit-records FILE`: scan one shard of
 * the candidate space and write its records file instead of a ranking.
 * Sharding is an analytic-tier transport, so the request must have the
 * analytic tier on (`analyticTopK > 0`); anything else is a FatalError
 * before any work runs.
 */
struct ShardScanRequest
{
    DseRequest dse;
    std::int64_t shardIndex = 0;
    std::int64_t shardCount = 1;
    std::string outPath;
};

RenderResult renderShardScan(const ShardScanRequest &request);

/**
 * `stellar_cli merge FILE...`: fold shard records files into the
 * single-process ranking + stats report (byte-identical to the
 * `stellar_cli dse` run over the whole space, timings excepted).
 * Exit code 1 when nothing was evaluated, as renderDse does.
 */
struct MergeRequest
{
    std::vector<std::string> inputs;
    std::size_t threads = 0;
    std::int64_t stepBudget = 0;
    std::int64_t timeBudgetMillis = 0;
    bool retryWallClock = false;
    bool failFast = false;
    bool timings = false;
};

RenderResult renderMerge(const MergeRequest &request);

} // namespace stellar::serve

#endif // STELLAR_SERVE_COMMANDS_HPP
