/**
 * @file
 * Shared pieces of the benchmark harness: the run context each workload
 * fills in, seeded input generation, output digests, and the span
 * tracer that times calls into the library from outside.
 *
 * The harness adds no instrumentation inside the library. Every span is
 * opened and closed here, around a call into a public function, so the
 * traced and untraced builds of the library are the same binary.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

inline double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

/** CPU time of this process (all threads) so far, in ms. Time the
 *  hypervisor steals from a VM is not counted. */
double processCpuMs();

/** Worker threads for the parallel workloads: the host's CPU count. */
std::size_t hostThreads();

/** Peak resident set of this process so far, in MB (getrusage). */
double peakRssMb();

/** SplitMix64: the only source of seeded choices in the harness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; i--)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** FNV-1a of `text` as 16 hex digits: the pinned-digest format. */
std::string digestHex(const std::string &text);

/**
 * Test hook for the output checks: when `every` is nonzero, every
 * `every`-th checked output has one byte flipped before it is compared,
 * so a test can show that a wrong output lands in `failed`.
 */
class Perturber
{
  public:
    explicit Perturber(std::uint64_t every = 0) : every_(every) {}
    std::string apply(std::string output);

  private:
    std::uint64_t every_;
    std::mutex mutex_;
    std::uint64_t seen_ = 0;
};

/** One recorded span. `op` groups the spans of one op or request. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 for a root span
    std::uint64_t op = 0;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t thread = 0;

    double ms() const { return msBetween(start, end); }
};

/**
 * In-memory span store. Spans are appended when they close and written
 * out once, when the run ends. Disabled, a span costs one branch.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    std::uint64_t newId();
    void record(SpanRecord span);

    /** Sum of durations of spans called `name` within op `op`. */
    double totalMs(const std::string &name, std::uint64_t op) const;
    /** Longest span called `name` within op `op`. */
    double maxMs(const std::string &name, std::uint64_t op) const;

    /** Chrome trace-event JSON, with each span's self time in args. */
    std::string chromeJson() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 1;
    std::vector<SpanRecord> spans_;
};

Tracer &tracer();

/** RAII span around one call into a layer. */
class Span
{
  public:
    Span(const char *name, std::uint64_t op, std::uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    std::uint64_t op_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    Clock::time_point start_;
};

/** Minimal JSON writer for the harness's single result object. */
class JsonOut
{
  public:
    void field(const std::string &key, double value);
    void field(const std::string &key, std::int64_t value);
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const std::vector<double> &values);
    void rawField(const std::string &key, const std::string &json);
    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &key);
    std::string body_;
};

/** What one workload run hands back to main(). */
struct RunResult
{
    std::vector<double> setupS;      //!< one sample per set-up
    std::vector<double> opMs;        //!< untraced ops (requests on serve)
    std::vector<double> tracedOpMs;  //!< traced ops (traced run only)
    double timedS = 0.0;             //!< wall time of the timed ops
    double timedCpuS = 0.0;          //!< process CPU time of the timed ops
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures; //!< first few, for stderr
    std::string layersJson = "{}";     //!< per-layer metrics (traced)

    /** Keep the first few failure descriptions; counting is the
     *  caller's. */
    void note(const std::string &what);
};

/** Run settings from the command line. */
struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t perturbEvery = 0;
    std::string outDir = ".bench_out";
};

/**
 * Timed loop shared by the closed-loop workloads: runs `op`
 * until `seconds` have passed and at least `min_ops` ops are done. In a
 * traced run every other op is traced, so traced and untraced medians
 * come from the same stretch of time.
 */
template <typename Op>
void
timedLoop(const RunConfig &config, std::size_t min_ops, RunResult &result,
          Op &&op)
{
    auto start = Clock::now();
    const double cpu_start = processCpuMs();
    std::size_t done = 0;
    while (done < min_ops ||
           msSince(start) < config.seconds * 1000.0) {
        bool traced = config.trace && done % 2 == 1;
        tracer().setEnabled(traced);
        auto op_start = Clock::now();
        bool ok = op();
        double ms = msSince(op_start);
        tracer().setEnabled(false);
        result.attempted++;
        if (!ok)
            result.failed++;
        (traced ? result.tracedOpMs : result.opMs).push_back(ms);
        done++;
    }
    result.timedS = msSince(start) / 1000.0;
    result.timedCpuS = (processCpuMs() - cpu_start) / 1000.0;
}

/**
 * p50 needs ten samples beyond it (see perfbench/README.md), so
 * every closed-loop workload runs at least this many ops.
 */
inline constexpr std::size_t kMinOps = 21;

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

RunResult runDseSweep(const RunConfig &config);
RunResult runDseShard(const RunConfig &config);
RunResult runSimSweep(const RunConfig &config);

/** Per-layer probes of a traced run. Each writes its metrics into
 *  `layers` and counts its own output checks in `result`. */
void probeDse(JsonOut &layers, RunResult &result);
void probeRecords(const RunConfig &config, JsonOut &layers,
                  RunResult &result);
void probeSim(JsonOut &layers, RunResult &result);
void probeServe(const RunConfig &config, JsonOut &layers,
                RunResult &result);

/** The generated inputs of a seed, printed for the determinism test. */
std::string describeDseInputs(std::uint64_t seed);
std::string describeServeInputs(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
