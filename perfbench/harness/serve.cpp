/**
 * @file
 * The serve probe of a traced run: a serve::Server on an AF_UNIX socket
 * with two workers, driven by two closed-loop clients that each wait for
 * their reply the way stellar_client does (two clients plus two workers
 * fit a 4-CPU host without oversubscription).
 *
 * Requests come in rounds of 100 with exact proportions, shuffled by
 * the seed:
 *   70 reads   warm hop-2 `dse` at dim 8, every candidate a memo hit;
 *   15 sims    `sim scnn`;
 *   10 writes  `dse` at a first-seen dim, inserting into the memo;
 *    5 hop-3   analytic `dse` at dim 8.
 * Measured medians on a 4-CPU host: reads 2.9 ms, writes 5.5 ms, sims
 * 8.1 ms, hop-3 79 ms. So p50 falls deep inside the reads (0-70%) and
 * p90 inside the sims (80-95%), away from any boundary between classes.
 * Before each round the design-point memo is cleared and the read key
 * re-warmed, untimed, so every round's writes are first-seen and every
 * read is a hit.
 *
 * The same rounds timed as an end-to-end workload were too sensitive to
 * CPU time stolen from the VM to repeat within any allowed bound (see
 * perfbench/README.md), so the serve layer is measured here only.
 */

#include "common.hpp"

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <unistd.h>

#include "serve/commands.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"

namespace perfbench
{

namespace
{

using namespace stellar;

enum class Class
{
    Read,
    Sim,
    Write,
    Hop3,
};

constexpr int kRoundSize = 100;
/** Two rounds give 200 samples, enough for a p90 with ten beyond it. */
constexpr int kProbeRounds = 2;
constexpr int kReads = 70, kSims = 15, kWrites = 10, kHop3 = 5;
static_assert(kReads + kSims + kWrites + kHop3 == kRoundSize);

const std::string kReadText = R"({"command":"dse","dim":8})";
const std::string kSimText = R"({"command":"sim","workload":"scnn"})";
const std::string kHop3Text =
        R"({"command":"dse","dim":8,"max_hop":3,"max_coeff":2,)"
        R"("topk":16,"analytic_top_k":16})";

/** The first-seen dims of a round: every round writes each once. */
std::string
writeText(int dim)
{
    return R"({"command":"dse","dim":)" + std::to_string(dim) +
           R"(,"analytic_top_k":4})";
}
constexpr int kFirstWriteDim = 10;

struct Request
{
    Class cls;
    std::string text;
};

/** The next round of the seeded request sequence. */
std::vector<Request>
nextRound(Rng &rng)
{
    std::vector<Request> round;
    for (int i = 0; i < kReads; i++)
        round.push_back({Class::Read, kReadText});
    for (int i = 0; i < kSims; i++)
        round.push_back({Class::Sim, kSimText});
    for (int i = 0; i < kWrites; i++)
        round.push_back({Class::Write, writeText(kFirstWriteDim + i)});
    for (int i = 0; i < kHop3; i++)
        round.push_back({Class::Hop3, kHop3Text});
    rng.shuffle(round);
    return round;
}

/** The probe's request sequence for a seed. */
std::vector<std::vector<Request>>
probeRounds(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
    std::vector<std::vector<Request>> rounds;
    for (int r = 0; r < kProbeRounds; r++)
        rounds.push_back(nextRound(rng));
    return rounds;
}

/** Reference outputs: what serve::renderDse/renderSim print for each
 *  distinct request, computed in this thread without the memo. */
std::map<std::string, std::string>
referenceOutputs()
{
    std::vector<std::string> texts = {kReadText, kSimText, kHop3Text};
    for (int i = 0; i < kWrites; i++)
        texts.push_back(writeText(kFirstWriteDim + i));
    std::map<std::string, std::string> outputs;
    for (const auto &text : texts) {
        serve::Request request = serve::parseRequest(text);
        outputs[text] = request.command == serve::Command::Sim
                                ? serve::renderSim(request.sim).output
                                : serve::renderDse(request.dse).output;
    }
    return outputs;
}

std::string
roundTrip(const std::string &path, const std::string &text)
{
    auto conn = util::LocalSocket::connectTo(path);
    conn.setTimeouts(60000);
    if (!conn.writeAll(text))
        throw std::runtime_error("serve probe: send failed");
    conn.shutdownWrite();
    std::string reply;
    if (conn.readAll(reply, 64 << 20) != util::SocketReadStatus::Eof)
        throw std::runtime_error("serve probe: short read");
    return reply;
}

/** A running server: constructed, listening, and joined on stop. */
class LiveServer
{
  public:
    explicit LiveServer(const std::string &path)
    {
        serve::ServeOptions options;
        options.socketPath = path;
        options.workers = 2;
        server_ = std::make_unique<serve::Server>(options);
        thread_ = std::thread([this] {
            try {
                server_->serve();
            } catch (...) {
                crashed_.store(true);
            }
        });
        // Ready once a stats request round-trips.
        auto start = Clock::now();
        while (true) {
            try {
                roundTrip(path, R"({"command":"stats"})");
                break;
            } catch (...) {
                if (crashed_.load() || msSince(start) > 10000.0) {
                    stop();
                    throw std::runtime_error("serve probe: server did not "
                                             "come up on " + path);
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    }

    ~LiveServer() { stop(); }
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    serve::Server &server() { return *server_; }

    void
    stop()
    {
        if (!thread_.joinable())
            return;
        server_->requestDrain();
        thread_.join();
        ::unlink(server_->options().socketPath.c_str());
    }

  private:
    std::unique_ptr<serve::Server> server_;
    std::atomic<bool> crashed_{false};
    std::thread thread_;
};

std::string
socketPath(const RunConfig &config, int index)
{
    std::filesystem::create_directories(config.outDir);
    return config.outDir + "/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(index) + ".sock";
}

/** One sample: a request's latency and whether its reply was right. */
struct Sample
{
    double ms = 0.0;
    bool ok = false;
};

/**
 * Send one round with two closed-loop clients; `send` performs one
 * request and returns its reply text. Returns samples in round order.
 */
template <typename Send>
std::vector<Sample>
runRound(const std::vector<Request> &round,
         const std::map<std::string, std::string> &expected,
         Perturber &perturber, RunResult &result, Send &&send)
{
    std::vector<Sample> samples(round.size());
    std::atomic<std::size_t> next{0};
    std::mutex note_mutex;
    auto client = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < round.size();) {
            const std::uint64_t op = tracer().enabled() ? tracer().newId() : 0;
            Span span("serve.request", op);
            auto start = Clock::now();
            std::string why;
            try {
                serve::Response response =
                        serve::parseResponse(send(round[i].text));
                if (response.status != serve::Status::Ok)
                    why = std::string("status ") +
                          serve::statusName(response.status) + " " +
                          response.failure.toString();
                else if (perturber.apply(response.output) !=
                         expected.at(round[i].text))
                    why = "output differs from the render functions'";
            } catch (const std::exception &err) {
                why = err.what();
            } catch (...) {
                // Nothing may escape: the second client must be joined.
                why = "unknown exception";
            }
            samples[i].ms = msSince(start);
            samples[i].ok = why.empty();
            if (!why.empty()) {
                std::lock_guard<std::mutex> lock(note_mutex);
                result.note("serve probe: " + round[i].text + ": " + why);
            }
        }
    };
    std::thread second(client);
    client();
    second.join();
    return samples;
}

/** Empty the memo and re-warm the read key, so the next round's reads
 *  hit and its writes are first-seen. */
void
resetMemo(LiveServer &live, const std::string &path)
{
    live.server().memo().clear();
    roundTrip(path, kReadText);
}

} // namespace

void
probeServe(const RunConfig &config, JsonOut &layers, RunResult &result)
{
    Perturber perturber;
    const auto expected = referenceOutputs();
    const auto rounds = probeRounds(config.seed);

    double parse_ms = 0.0;
    for (const auto &round : rounds)
        for (const auto &request : round) {
            auto start = Clock::now();
            serve::parseRequest(request.text);
            parse_ms += msSince(start);
        }

    const std::string path = socketPath(config, 9);
    LiveServer live(path);
    for (const auto &text : {kReadText, kSimText, kHop3Text})
        roundTrip(path, text);
    const auto memo_before = live.server().memo().stats();

    // Over the wire, as clients send them.
    std::vector<double> latencies;
    double wire_ms = 0.0;
    for (const auto &round : rounds) {
        resetMemo(live, path);
        for (const auto &sample :
             runRound(round, expected, perturber, result,
                      [&](const std::string &text) {
                          return roundTrip(path, text);
                      })) {
            latencies.push_back(sample.ms);
            wire_ms += sample.ms;
            result.attempted++;
            result.failed += sample.ok ? 0 : 1;
        }
    }
    const auto memo_after = live.server().memo().stats();

    // The same rounds in-process: handleRequestText without the socket.
    double handle_ms = 0.0;
    for (const auto &round : rounds) {
        resetMemo(live, path);
        for (const auto &sample :
             runRound(round, expected, perturber, result,
                      [&](const std::string &text) {
                          return live.server().handleRequestText(text);
                      })) {
            handle_ms += sample.ms;
            result.attempted++;
            result.failed += sample.ok ? 0 : 1;
        }
    }
    const auto stats = live.server().stats();
    live.stop();

    const std::uint64_t lookups = memo_after.lookups - memo_before.lookups;
    const std::uint64_t hits = memo_after.hits - memo_before.hits;
    layers.field("serve.parse_ms", parse_ms / kProbeRounds);
    layers.field("serve.handle_ms", handle_ms / kProbeRounds);
    layers.field("serve.wire_wait_ms", (wire_ms - handle_ms) / kProbeRounds);
    layers.field("serve.memo_hit_ratio",
                 lookups == 0 ? 0.0 : double(hits) / double(lookups));
    layers.field("serve.shed", std::int64_t(stats.shed));
    layers.field("serve.errors", std::int64_t(stats.errors));
    layers.field("serve.req_latencies_ms", latencies);
}

std::string
describeServeInputs(std::uint64_t seed)
{
    static const char *names[] = {"read", "sim", "write", "hop3"};
    std::string out;
    int index = 0;
    for (const auto &round : probeRounds(seed)) {
        out += "round " + std::to_string(index++) + ":";
        for (const auto &request : round) {
            out += std::string(" ") + names[int(request.cls)];
            if (request.cls == Class::Write)
                out += request.text.substr(request.text.find("\"dim\":") + 6,
                                           2);
        }
        out += "\n";
    }
    return out;
}

} // namespace perfbench
