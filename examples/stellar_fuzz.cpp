/**
 * @file
 * Seeded fuzz/soak driver for the hostile-input invariant: every input
 * either succeeds or degrades to a classified util::Failure — never a
 * crash, a sanitizer report, or an unclassified throw. CI runs this in
 * the ASan+UBSan tree (see .github/workflows/ci.yml `fuzz` and
 * scripts/check_matrix.sh --fuzz-smoke); violations are minimized and
 * dumped as repro files.
 *
 * usage: stellar_fuzz [--iterations N] [--seed S] [--domain D]
 *                     [--step-budget B] [--time-budget MS]
 *                     [--repro-dir DIR] [--no-minimize]
 *                     [--soak SOCKET] [--soak-threads N]
 *   --iterations N   inputs to generate and replay (default 1000)
 *   --seed S         base seed; iteration i of seed S is always the
 *                    same input (default 1)
 *   --domain D       restrict to one domain: spec, transform, mtx,
 *                    request, enumerate, records (default: round-robin
 *                    over all six)
 *   --step-budget B  watchdog step budget per replay (default 200000)
 *   --time-budget MS watchdog wall-clock deadline per replay (0 = none)
 *   --repro-dir DIR  dump violating inputs under DIR (default
 *                    fuzz-repros when any violation occurs)
 *   --no-minimize    keep violating inputs verbatim
 *   --soak SOCKET    soak mode: fire the request generator at a live
 *                    stellar_serve daemon on SOCKET from --soak-threads
 *                    concurrent connections (default 4) instead of the
 *                    in-process domains. The invariant hardens to the
 *                    wire: every request must draw a parseable response
 *                    with a known status and no `unknown` failure kind,
 *                    and the daemon must outlive the storm. ~5% of
 *                    connections hang up without reading the reply.
 *   --soak-stats-ms N  while soaking, snapshot the daemon's `stats`
 *                    endpoint every N ms and assert every counter is
 *                    monotone non-decreasing across snapshots — the
 *                    `bytes`/`entries` keys are exempt (cache gauges
 *                    shrink on eviction). 0 disables (default 250).
 *
 * Exit status: 0 when the invariant held for every input, 1 otherwise.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "testkit/fuzz.hpp"
#include "util/socket.hpp"

using namespace stellar;

namespace
{

/** Wire-level soak tallies (one atomic per closed response class). */
struct SoakTally
{
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::atomic<std::uint64_t> shuttingDown{0};
    std::atomic<std::uint64_t> dropped{0}; //!< hung up before the reply
    std::atomic<std::uint64_t> violations{0};
};

/**
 * Flatten the stats endpoint's JSON into ("group.key", value) pairs.
 * The document comes from our own serializer — flat nesting, numeric
 * leaves, no arrays — so a tiny scanner suffices; anything it cannot
 * digest simply yields fewer pairs (and the response already passed
 * serve::parseResponse before reaching here).
 */
std::vector<std::pair<std::string, double>>
flattenStatsJson(const std::string &text)
{
    std::vector<std::pair<std::string, double>> out;
    std::vector<std::string> stack;
    std::string pending;
    std::size_t i = 0;
    while (i < text.size()) {
        char c = text[i];
        if (c == '"') {
            std::size_t end = text.find('"', i + 1);
            if (end == std::string::npos)
                break;
            pending = text.substr(i + 1, end - i - 1);
            i = end + 1;
        } else if (c == '{') {
            stack.push_back(pending);
            pending.clear();
            i++;
        } else if (c == '}') {
            if (!stack.empty())
                stack.pop_back();
            i++;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            char *end = nullptr;
            double value = std::strtod(text.c_str() + i, &end);
            std::string path;
            for (const auto &group : stack)
                if (!group.empty())
                    path += group + ".";
            path += pending;
            out.emplace_back(std::move(path), value);
            i = std::size_t(end - text.c_str());
        } else {
            i++;
        }
    }
    return out;
}

/** Gauges exempt from the soak monotonicity invariant: cache byte and
 *  entry counts legitimately shrink when evictions run. */
bool
statsKeyIsGauge(const std::string &key)
{
    return key.find("bytes") != std::string::npos ||
           key.find("entries") != std::string::npos;
}

/**
 * The soak stats monitor: periodically snapshot the daemon's `stats`
 * endpoint and assert every counter is monotone non-decreasing across
 * snapshots (a counter going backwards means lost or double-written
 * accounting under concurrency — exactly what a data race on the stats
 * mutex would look like from the wire). One final snapshot is taken
 * after the storm ends so the last interval is covered too.
 */
void
statsMonitor(const std::string &socket_path, std::int64_t interval_ms,
             const std::atomic<bool> &stop, SoakTally &tally,
             std::mutex &log_mutex, std::atomic<std::uint64_t> &snapshots)
{
    std::map<std::string, double> last;
    auto violation = [&](const std::string &what) {
        tally.violations.fetch_add(1);
        std::lock_guard<std::mutex> lock(log_mutex);
        std::fprintf(stderr, "VIOLATION: soak stats monitor: %s\n",
                     what.c_str());
    };
    auto poll = [&] {
        std::string reply;
        try {
            auto conn = util::LocalSocket::connectTo(socket_path);
            conn.setTimeouts(120000);
            conn.writeAll("{\"command\":\"stats\"}");
            conn.shutdownWrite();
            if (conn.readAll(reply, 64 << 20) !=
                util::SocketReadStatus::Eof) {
                violation("no complete stats reply on the wire");
                return;
            }
        } catch (const std::exception &err) {
            violation(std::string("stats connection failed: ") +
                      err.what());
            return;
        }
        serve::Response response;
        try {
            response = serve::parseResponse(reply);
        } catch (const std::exception &err) {
            violation(std::string("unparseable stats response: ") +
                      err.what());
            return;
        }
        if (response.status != serve::Status::Ok)
            return; // overloaded / shutting down: no snapshot this tick
        snapshots.fetch_add(1);
        for (const auto &[key, value] : flattenStatsJson(response.output)) {
            auto it = last.find(key);
            if (it != last.end() && value < it->second &&
                !statsKeyIsGauge(key))
                violation("counter " + key + " went backwards (" +
                          std::to_string(it->second) + " -> " +
                          std::to_string(value) + ")");
            last[key] = value;
        }
    };
    while (!stop.load()) {
        poll();
        // Sleep in small slices so shutdown stays prompt.
        for (std::int64_t slept = 0; slept < interval_ms && !stop.load();
             slept += 20)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    poll(); // cover the final interval after the workers finished
}

/** One soak worker: its own seeded generator, one request per
 *  connection, every reply validated against the closed response set. */
void
soakWorker(const std::string &socket_path, std::uint64_t seed,
           std::size_t thread_index, std::size_t count, SoakTally &tally,
           std::mutex &log_mutex)
{
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (thread_index + 1));
    auto violation = [&](const std::string &what,
                         const std::string &request) {
        tally.violations.fetch_add(1);
        std::lock_guard<std::mutex> lock(log_mutex);
        std::fprintf(stderr,
                     "VIOLATION: soak thread %zu: %s\n  request: %.200s\n",
                     thread_index, what.c_str(), request.c_str());
    };
    for (std::size_t i = 0; i < count; i++) {
        // Never `shutdown`: the target must stay up for the whole storm.
        std::string request = fuzz::randomServeRequestText(
                rng, /*allow_shutdown=*/false);
        try {
            auto conn = util::LocalSocket::connectTo(socket_path);
            conn.setTimeouts(120000);
            // A failed send is not conclusive (the daemon sheds without
            // reading, so a large request can die on EPIPE mid-write);
            // the reply that provoked it is still waiting to be read.
            bool sent = conn.writeAll(request);
            conn.shutdownWrite();
            if (sent && rng.nextBool(0.05)) {
                tally.dropped.fetch_add(1);
                continue; // vanish before the reply: the daemon copes
            }
            std::string reply;
            if (conn.readAll(reply, 64 << 20) !=
                util::SocketReadStatus::Eof) {
                violation("no complete reply on the wire", request);
                continue;
            }
            serve::Response response = serve::parseResponse(reply);
            switch (response.status) {
              case serve::Status::Ok:
                tally.ok.fetch_add(1);
                break;
              case serve::Status::Error:
                if (response.failure.kind == util::FailureKind::Unknown) {
                    violation("response classified Unknown: " +
                                      response.failure.toString(),
                              request);
                } else {
                    tally.errors.fetch_add(1);
                }
                break;
              case serve::Status::Overloaded:
                tally.overloaded.fetch_add(1);
                break;
              case serve::Status::ShuttingDown:
                tally.shuttingDown.fetch_add(1);
                break;
            }
        } catch (const std::exception &err) {
            // connectTo / parseResponse raising here means the daemon
            // is gone or spoke gibberish — both are invariant breaches.
            violation(err.what(), request);
        }
    }
}

int
runSoak(const std::string &socket_path, std::size_t threads,
        std::size_t iterations, std::uint64_t seed,
        std::int64_t stats_interval_ms)
{
    threads = std::max<std::size_t>(1, threads);
    SoakTally tally;
    std::mutex log_mutex;
    std::atomic<bool> monitor_stop{false};
    std::atomic<std::uint64_t> snapshots{0};
    std::thread monitor;
    if (stats_interval_ms > 0)
        monitor = std::thread(statsMonitor, socket_path,
                              stats_interval_ms, std::cref(monitor_stop),
                              std::ref(tally), std::ref(log_mutex),
                              std::ref(snapshots));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; t++) {
        std::size_t count = iterations / threads +
                            (t < iterations % threads ? 1 : 0);
        pool.emplace_back(soakWorker, socket_path, seed, t, count,
                          std::ref(tally), std::ref(log_mutex));
    }
    for (auto &worker : pool)
        worker.join();
    if (monitor.joinable()) {
        monitor_stop.store(true);
        monitor.join();
    }
    std::printf("soak: %zu requests over %zu threads: %llu ok, %llu "
                "error, %llu overloaded, %llu shutting-down, %llu "
                "dropped, %llu violations\n",
                iterations, threads,
                (unsigned long long)tally.ok.load(),
                (unsigned long long)tally.errors.load(),
                (unsigned long long)tally.overloaded.load(),
                (unsigned long long)tally.shuttingDown.load(),
                (unsigned long long)tally.dropped.load(),
                (unsigned long long)tally.violations.load());
    if (stats_interval_ms > 0)
        std::printf("soak-stats: %llu snapshots, every counter monotone "
                    "non-decreasing\n",
                    (unsigned long long)snapshots.load());
    return tally.violations.load() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzOptions options;
    options.reproDir = "fuzz-repros";
    std::string soak_socket;
    std::size_t soak_threads = 4;
    std::int64_t soak_stats_ms = 250;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc)
            options.iterations =
                    std::size_t(std::max(0, std::atoi(argv[++i])));
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            options.seed = std::uint64_t(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--step-budget") == 0 && i + 1 < argc)
            options.stepBudget =
                    std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--time-budget") == 0 && i + 1 < argc)
            options.timeBudgetMillis =
                    std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--repro-dir") == 0 && i + 1 < argc)
            options.reproDir = argv[++i];
        else if (std::strcmp(argv[i], "--no-minimize") == 0)
            options.minimize = false;
        else if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc)
            soak_socket = argv[++i];
        else if (std::strcmp(argv[i], "--soak-threads") == 0 &&
                 i + 1 < argc)
            soak_threads = std::size_t(std::max(1, std::atoi(argv[++i])));
        else if (std::strcmp(argv[i], "--soak-stats-ms") == 0 &&
                 i + 1 < argc)
            soak_stats_ms = std::max<std::int64_t>(0, std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--domain") == 0 && i + 1 < argc) {
            std::string domain = argv[++i];
            if (domain == "spec")
                options.domains = {fuzz::FuzzDomain::Spec};
            else if (domain == "transform")
                options.domains = {fuzz::FuzzDomain::Transform};
            else if (domain == "mtx")
                options.domains = {fuzz::FuzzDomain::MatrixMarket};
            else if (domain == "request")
                options.domains = {fuzz::FuzzDomain::Request};
            else if (domain == "enumerate")
                options.domains = {fuzz::FuzzDomain::Enumerate};
            else if (domain == "records")
                options.domains = {fuzz::FuzzDomain::Records};
            else {
                std::fprintf(stderr, "unknown domain '%s' (want spec, "
                                     "transform, mtx, request, "
                                     "enumerate, or records)\n",
                             domain.c_str());
                return 1;
            }
        } else {
            std::printf("usage: stellar_fuzz [--iterations N] [--seed S] "
                        "[--domain spec|transform|mtx|request|enumerate|records] "
                        "[--step-budget B] [--time-budget MS] "
                        "[--repro-dir DIR] [--no-minimize] "
                        "[--soak SOCKET] [--soak-threads N] "
                        "[--soak-stats-ms MS]\n");
            return 1;
        }
    }

    if (!soak_socket.empty())
        return runSoak(soak_socket, soak_threads, options.iterations,
                       options.seed, soak_stats_ms);

    auto report = fuzz::runFuzz(options);
    std::printf("%s\n", report.toString().c_str());
    for (const auto &violation : report.violations) {
        std::fprintf(stderr,
                     "VIOLATION: domain %s iteration %zu seed %llx: %s\n",
                     fuzz::fuzzDomainName(violation.domain),
                     violation.iteration,
                     (unsigned long long)violation.seed,
                     violation.failure.toString().c_str());
        if (!violation.reproPath.empty())
            std::fprintf(stderr, "  repro dumped to %s\n",
                         violation.reproPath.c_str());
    }
    return report.ok() ? 0 : 1;
}
