#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <sys/resource.h>

#include "util/memo.hpp"

namespace perfbench
{

namespace
{

/**
 * Self time of every span: its duration minus the union of the
 * intervals its children cover, clipped to the span. Keyed by span id.
 */
std::map<std::uint64_t, double>
selfTimesMs(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, std::vector<const SpanRecord *>> children;
    for (const auto &span : spans)
        if (span.parent != 0)
            children[span.parent].push_back(&span);

    std::map<std::uint64_t, double> self;
    for (const auto &span : spans) {
        // Union of the children's intervals, clipped to the span:
        // parallel children overlap and must not be subtracted twice.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (const SpanRecord *child : children[span.id]) {
            auto lo = std::max(child->start, span.start);
            auto hi = std::min(child->end, span.end);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        Clock::time_point reach = span.start;
        for (const auto &[lo, hi] : cover) {
            auto from = std::max(lo, reach);
            if (hi > from) {
                covered += msBetween(from, hi);
                reach = hi;
            }
        }
        self[span.id] = span.ms() - covered;
    }
    return self;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

std::size_t
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
processCpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return double(now.tv_sec) * 1e3 + double(now.tv_nsec) / 1e6;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
digestHex(const std::string &text)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)stellar::util::fnv1a(text));
    return buffer;
}

std::string
Perturber::apply(std::string output)
{
    if (every_ == 0)
        return output;
    std::lock_guard<std::mutex> lock(mutex_);
    if (++seen_ % every_ == 0) {
        if (output.empty())
            output = "x";
        else
            output[output.size() / 2] ^= 0x20;
    }
    return output;
}

std::uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

double
Tracer::totalMs(const std::string &name, std::uint64_t op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const auto &span : spans_)
        if (span.op == op && span.name == name)
            total += span.ms();
    return total;
}

double
Tracer::maxMs(const std::string &name, std::uint64_t op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double best = 0.0;
    for (const auto &span : spans_)
        if (span.op == op && span.name == name)
            best = std::max(best, span.ms());
    return best;
}

std::string
Tracer::chromeJson() const
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        all = spans_;
    }
    auto self = selfTimesMs(all);
    Clock::time_point epoch = Clock::time_point::max();
    for (const auto &span : all)
        epoch = std::min(epoch, span.start);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto &span : all) {
        char buffer[512];
        std::snprintf(
                buffer, sizeof(buffer),
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"parent\":%llu,\"op\":%llu,\"self_us\":%.3f}}",
                first ? "" : ",", span.name.c_str(), span.thread,
                msBetween(epoch, span.start) * 1e3, span.ms() * 1e3,
                (unsigned long long)span.id,
                (unsigned long long)span.parent,
                (unsigned long long)span.op, self[span.id] * 1e3);
        out += buffer;
        first = false;
    }
    out += "]}\n";
    return out;
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

Span::Span(const char *name, std::uint64_t op, std::uint64_t parent)
    : name_(name), op_(op), parent_(parent)
{
    if (!tracer().enabled())
        return;
    id_ = tracer().newId();
    start_ = Clock::now();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    SpanRecord span;
    span.id = id_;
    span.parent = parent_;
    span.op = op_;
    span.name = name_;
    span.start = start_;
    span.end = Clock::now();
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                  100000;
    tracer().record(std::move(span));
}

void
JsonOut::key(const std::string &key)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"" + key + "\":";
}

void
JsonOut::field(const std::string &name, double value)
{
    key(name);
    body_ += jsonNumber(value);
}

void
JsonOut::field(const std::string &name, std::int64_t value)
{
    key(name);
    body_ += std::to_string(value);
}

void
JsonOut::field(const std::string &name, const std::string &value)
{
    key(name);
    std::string escaped;
    for (char c : value) {
        if (c == '"' || c == '\\')
            escaped += '\\';
        if (c == '\n') {
            escaped += "\\n";
            continue;
        }
        escaped += c;
    }
    body_ += "\"" + escaped + "\"";
}

void
JsonOut::field(const std::string &name, const std::vector<double> &values)
{
    key(name);
    body_ += "[";
    for (std::size_t i = 0; i < values.size(); i++)
        body_ += (i ? "," : "") + jsonNumber(values[i]);
    body_ += "]";
}

void
JsonOut::rawField(const std::string &name, const std::string &json)
{
    key(name);
    body_ += json;
}

void
RunResult::note(const std::string &what)
{
    if (failures.size() < 8)
        failures.push_back(what);
}

} // namespace perfbench
