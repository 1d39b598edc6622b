#include "serve/protocol.hpp"

#include "util/json.hpp"
#include "util/logging.hpp"

namespace stellar::serve
{

namespace
{

namespace json = util::json;

[[noreturn]] void
fail(const std::string &what, std::size_t offset)
{
    throw FatalError("serve request: " + what + " at byte " +
                     std::to_string(offset));
}

std::int64_t
intField(const json::Value &value, const std::string &key,
         std::int64_t min, std::int64_t max)
{
    std::int64_t v = json::toInt64(value, "serve request: ", key);
    if (v < min || v > max)
        fail("'" + key + "' must be in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "] (got " + std::to_string(v) +
                     ")",
             value.offset);
    return v;
}

bool
boolField(const json::Value &value, const std::string &key)
{
    if (!value.isBool())
        fail("'" + key + "' must be true or false", value.offset);
    return value.boolean;
}

std::string
stringField(const json::Value &value, const std::string &key)
{
    if (!value.isString())
        fail("'" + key + "' must be a string", value.offset);
    return value.string;
}

constexpr std::int64_t kMaxBudget = 1ll << 62;

} // namespace

Request
parseRequest(const std::string &text, const RequestLimits &limits)
{
    json::ParseLimits parse_limits;
    parse_limits.maxBytes = limits.maxBytes;
    json::Value root = json::parse(text, "serve request", parse_limits);
    if (!root.isObject())
        fail("request must be an object", root.offset);
    const json::Value *command = root.find("command");
    if (command == nullptr)
        fail("request must carry 'command'", root.offset);
    std::string name = stringField(*command, "command");

    Request request;
    if (name == "sim")
        request.command = Command::Sim;
    else if (name == "dse")
        request.command = Command::Dse;
    else if (name == "stats")
        request.command = Command::Stats;
    else if (name == "shutdown")
        request.command = Command::Shutdown;
    else
        fail("unknown command '" + name + "'", command->offset);

    for (const auto &[key, field] : root.object) {
        if (key == "command")
            continue;
        if (request.command == Command::Sim) {
            if (key == "workload") {
                request.sim.workload = stringField(field, key);
                continue;
            }
            if (key == "threads") {
                request.sim.threads = std::size_t(intField(
                        field, key, 0,
                        std::int64_t(limits.maxThreads)));
                continue;
            }
            if (key == "step_budget") {
                request.sim.stepBudget =
                        intField(field, key, 0, kMaxBudget);
                continue;
            }
            if (key == "time_budget_ms") {
                request.sim.timeBudgetMillis =
                        intField(field, key, 0, kMaxBudget);
                continue;
            }
        } else if (request.command == Command::Dse) {
            if (key == "dim") {
                request.dse.dim = int(intField(field, key, 1,
                                               limits.maxDim));
                continue;
            }
            if (key == "threads") {
                request.dse.threads = std::size_t(intField(
                        field, key, 0,
                        std::int64_t(limits.maxThreads)));
                continue;
            }
            if (key == "topk") {
                request.dse.topK = std::size_t(intField(
                        field, key, 1, std::int64_t(limits.maxTopK)));
                continue;
            }
            if (key == "max_pes") {
                request.dse.maxPes = intField(field, key, 0, kMaxBudget);
                continue;
            }
            if (key == "analytic_top_k") {
                request.dse.analyticTopK = std::size_t(intField(
                        field, key, 0,
                        std::int64_t(limits.maxAnalyticTopK)));
                continue;
            }
            if (key == "max_hop") {
                request.dse.maxHop = int(intField(
                        field, key, 1, std::int64_t(limits.maxHop)));
                continue;
            }
            if (key == "max_coeff") {
                request.dse.maxCoeff = int(intField(
                        field, key, 1, std::int64_t(limits.maxCoeff)));
                continue;
            }
            if (key == "enum_limit") {
                request.dse.enumLimit = std::size_t(intField(
                        field, key, 1,
                        std::int64_t(limits.maxEnumerated)));
                continue;
            }
            if (key == "step_budget") {
                request.dse.stepBudget =
                        intField(field, key, 0, kMaxBudget);
                continue;
            }
            if (key == "time_budget_ms") {
                request.dse.timeBudgetMillis =
                        intField(field, key, 0, kMaxBudget);
                continue;
            }
            if (key == "retry_wall_clock") {
                request.dse.retryWallClock = boolField(field, key);
                continue;
            }
            if (key == "fail_fast") {
                request.dse.failFast = boolField(field, key);
                continue;
            }
            if (key == "timings") {
                request.dse.timings = boolField(field, key);
                continue;
            }
        }
        // Unknown fields are rejected, never ignored: a typo like
        // "step_budgets" silently dropped would run with no budget.
        fail("unknown field '" + key + "' for command '" + name + "'",
             field.offset);
    }

    // Admission on the coefficient-code space a dse request would scan:
    // the matmul spec has 3 iterators, so the scan walks
    // (2*max_coeff+1)^9 codes. Reject oversized spaces at parse time
    // instead of letting a worker discover the cap mid-request.
    if (request.command == Command::Dse) {
        std::int64_t range = 2 * std::int64_t(request.dse.maxCoeff) + 1;
        std::int64_t codes = 1;
        for (int c = 0; c < 9; c++) {
            if (codes > limits.maxScanCodes / range) {
                codes = limits.maxScanCodes + 1;
                break;
            }
            codes *= range;
        }
        if (codes > limits.maxScanCodes)
            fail("'max_coeff' of " +
                         std::to_string(request.dse.maxCoeff) +
                         " scans more than " +
                         std::to_string(limits.maxScanCodes) +
                         " coefficient codes",
                 root.offset);
    }
    return request;
}

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "ok";
      case Status::Error: return "error";
      case Status::Overloaded: return "overloaded";
      case Status::ShuttingDown: return "shutting_down";
    }
    return "error";
}

std::string
serializeResponse(const Response &response)
{
    std::string out = "{\"status\":";
    out += json::quote(statusName(response.status));
    switch (response.status) {
      case Status::Ok:
        out += ",\"exit_code\":" + std::to_string(response.exitCode);
        out += ",\"output\":" + json::quote(response.output);
        break;
      case Status::Error:
        out += ",\"failure\":{\"kind\":";
        out += json::quote(util::failureKindName(response.failure.kind));
        out += ",\"stage\":" + json::quote(response.failure.stage);
        out += ",\"candidate\":" + json::quote(response.failure.candidate);
        out += ",\"message\":" + json::quote(response.failure.message);
        out += "}";
        break;
      case Status::Overloaded:
        out += ",\"retry_after_ms\":" +
               std::to_string(response.retryAfterMillis);
        break;
      case Status::ShuttingDown:
        break;
    }
    out += "}";
    return out;
}

Response
parseResponse(const std::string &text)
{
    json::Value root = json::parse(text, "serve response");
    if (!root.isObject())
        fail("response must be an object", root.offset);
    const json::Value *status = root.find("status");
    if (status == nullptr || !status->isString())
        fail("response must carry a string 'status'", root.offset);

    Response response;
    if (status->string == "ok")
        response.status = Status::Ok;
    else if (status->string == "error")
        response.status = Status::Error;
    else if (status->string == "overloaded")
        response.status = Status::Overloaded;
    else if (status->string == "shutting_down")
        response.status = Status::ShuttingDown;
    else
        fail("unknown status '" + status->string + "'", status->offset);

    if (response.status == Status::Ok) {
        if (const json::Value *code = root.find("exit_code"))
            response.exitCode =
                    int(json::toInt64(*code, "serve response: exit_code"));
        if (const json::Value *output = root.find("output")) {
            if (!output->isString())
                fail("'output' must be a string", output->offset);
            response.output = output->string;
        }
    }
    if (response.status == Status::Overloaded) {
        if (const json::Value *retry = root.find("retry_after_ms"))
            response.retryAfterMillis = json::toInt64(
                    *retry, "serve response: retry_after_ms");
    }
    if (response.status == Status::Error) {
        const json::Value *failure = root.find("failure");
        if (failure == nullptr || !failure->isObject())
            fail("error response must carry a 'failure' object",
                 root.offset);
        const json::Value *kind = failure->find("kind");
        if (kind == nullptr || !kind->isString())
            fail("failure must carry a string 'kind'", failure->offset);
        bool known = false;
        for (std::size_t k = 0; k < util::kFailureKindCount; k++) {
            if (kind->string ==
                util::failureKindName(util::FailureKind(k))) {
                response.failure.kind = util::FailureKind(k);
                known = true;
                break;
            }
        }
        if (!known)
            fail("unknown failure kind '" + kind->string + "'",
                 kind->offset);
        if (const json::Value *stage = failure->find("stage"))
            response.failure.stage = stringField(*stage, "stage");
        if (const json::Value *candidate = failure->find("candidate"))
            response.failure.candidate =
                    stringField(*candidate, "candidate");
        if (const json::Value *message = failure->find("message"))
            response.failure.message = stringField(*message, "message");
    }
    return response;
}

} // namespace stellar::serve
