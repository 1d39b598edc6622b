#include "accel/dse.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "accel/analytic.hpp"
#include "model/area.hpp"
#include "model/timing.hpp"
#include "util/fault_inject.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace stellar::accel
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
}

DseCandidate
evaluateCandidate(const dataflow::SpaceTimeTransform &transform,
                  std::size_t enum_index,
                  const func::FunctionalSpec &functional,
                  const IntVec &bounds, const DseOptions &options,
                  const model::AreaParams &area_params,
                  const model::TimingParams &timing_params)
{
    util::fault::checkpoint("dse.evaluate");
    core::AcceleratorSpec spec;
    spec.name = "dse";
    spec.functional = functional;
    spec.transform = transform;
    spec.sparsity = options.sparsity;
    spec.balancing = options.balancing;
    spec.elaborationBounds = bounds;
    auto generated = core::generate(spec);
    util::fault::checkpoint("dse.score");

    DseCandidate candidate;
    candidate.transform = transform;
    candidate.enumIndex = enum_index;
    candidate.pes = generated.array.numPes();
    candidate.wires = generated.array.totalWires();
    candidate.wireLength = generated.array.totalWireLength();
    candidate.scheduleLength = generated.array.scheduleLength();
    auto timing = model::timingOf(timing_params, generated,
                                  /*centralized=*/false);
    candidate.fmaxMhz = timing.fmaxMhz();
    candidate.areaUm2 = model::arrayArea(area_params, generated,
                                         options.macBits,
                                         options.dataWidth, true);
    double seconds = double(candidate.scheduleLength) /
                     (candidate.fmaxMhz * 1e6);
    candidate.score = seconds * candidate.areaUm2;
    return candidate;
}

/** Resident-size estimate for a memoized candidate (LRU accounting). */
std::uint64_t
candidateBytes(const DseCandidate &candidate)
{
    const auto &matrix = candidate.transform.matrix();
    return sizeof(DseCandidate) +
           std::uint64_t(matrix.rows()) * std::uint64_t(matrix.cols()) *
                   sizeof(std::int64_t) +
           candidate.transform.name().size();
}

} // namespace

std::string
DesignPointMemo::candidateKey(const std::string &spec_key,
                              const IntVec &bounds, int data_width,
                              int mac_bits,
                              const dataflow::SpaceTimeTransform &transform)
{
    std::string key = spec_key;
    key += "|b=";
    key += vecToString(bounds);
    key += "|w=";
    key += std::to_string(data_width);
    key += "/";
    key += std::to_string(mac_bits);
    key += "|T=";
    const IntMatrix &matrix = transform.matrix();
    key += std::to_string(matrix.rows());
    key += "x";
    key += std::to_string(matrix.cols());
    key += ":";
    for (int r = 0; r < matrix.rows(); r++)
        for (int c = 0; c < matrix.cols(); c++) {
            key += std::to_string(matrix.at(r, c));
            key += ",";
        }
    key += transform.name();
    return key;
}

std::shared_ptr<const DseCandidate>
DesignPointMemo::lookup(const std::string &key)
{
    return std::static_pointer_cast<const DseCandidate>(
            cache_.lookup(key, util::fnv1a(key)));
}

std::shared_ptr<const DseCandidate>
DesignPointMemo::insert(const std::string &key, DseCandidate candidate)
{
    std::uint64_t bytes = candidateBytes(candidate);
    auto payload = std::make_shared<const DseCandidate>(
            std::move(candidate));
    return std::static_pointer_cast<const DseCandidate>(cache_.insert(
            key, util::fnv1a(key), std::move(payload), bytes));
}

double
DseStats::candidatesPerSecond() const
{
    if (evaluateMs <= 0.0)
        return 0.0;
    return double(evaluated) / (evaluateMs / 1e3);
}

double
DseStats::analyticCandidatesPerSecond() const
{
    if (analyticMs <= 0.0)
        return 0.0;
    return double(analyticRanked) / (analyticMs / 1e3);
}

FrontHalfScorer::FrontHalfScorer(const func::FunctionalSpec &functional,
                                 const IntVec &bounds,
                                 const DseOptions &options,
                                 const model::AreaParams &area_params,
                                 const model::TimingParams &timing_params,
                                 std::atomic<std::int64_t> &score_nanos)
    : bounds_(bounds), maxPes_(options.maxPes), scoreNanos_(&score_nanos)
{
    if (options.analyticTopK > 0)
        model_.emplace(functional, bounds, options.sparsity,
                       options.dataWidth, options.macBits, area_params,
                       timing_params);
}

std::unique_ptr<dataflow::SurvivorScorer>
FrontHalfScorer::clone() const
{
    return std::make_unique<FrontHalfScorer>(*this);
}

dataflow::Verdict
FrontHalfScorer::score(std::span<const std::int64_t> cells)
{
    dataflow::Verdict verdict;
    verdict.pruned =
            maxPes_ > 0 && analyticPeCount(cells, bounds_, kernel_) > maxPes_;
    if (verdict.pruned || !model_)
        return verdict;
    auto start = Clock::now();
    auto analytic = model_->score(cells);
    scoreNanos_->fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count(),
            std::memory_order_relaxed);
    verdict.saturated = analytic.saturated;
    verdict.score = analytic.score;
    return verdict;
}

std::vector<DseCandidate>
exploreDataflows(const func::FunctionalSpec &functional,
                 const IntVec &bounds, const DseOptions &options,
                 const model::AreaParams &area_params,
                 const model::TimingParams &timing_params, DseStats *stats)
{
    DseStats local;
    auto front_start = Clock::now();

    // The scan workers attach each survivor's verdict (maxPes prune,
    // closed-form score); the loop below keeps, in enumeration order,
    // every unpruned code (no tier) or the top-K, so the ranking is
    // byte-identical at any thread or shard count, and only kept codes
    // become transforms. With an empty balancing spec the analytic score
    // equals the elaborated one, so the filter is lossless.
    const bool tiered = options.analyticTopK > 0;
    std::atomic<std::int64_t> score_nanos{0};
    FrontHalfScorer scorer(functional, bounds, options, area_params,
                           timing_params, score_nanos);
    AnalyticTopK<std::int64_t> top(options.analyticTopK);
    std::vector<std::pair<std::size_t, std::int64_t>> kept;
    {
        // Scoped so a `limit` stop drops its speculative chunks here.
        dataflow::SurvivorStream stream(functional, options.enumerate,
                                        &scorer);
        dataflow::Survivor s;
        while (stream.next(s)) {
            if (s.verdict.pruned)
                local.prunedEarly++;
            else if (!tiered)
                kept.emplace_back(s.index, s.code);
            else
                top.offer({s.verdict.saturated, s.verdict.score, s.index},
                          s.code);
        }
        local.enumeration = stream.stats();
    }
    local.enumerated = std::size_t(local.enumeration.yielded);
    local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);
    if (tiered) {
        // With too few survivors for the tier to filter, its counters
        // and timing stay 0 and the scoring counts as enumeration.
        if (top.offered() > options.analyticTopK) {
            local.analyticRanked = top.offered();
            local.analyticFiltered = top.offered() - top.kept();
            local.analyticMs = double(score_nanos.load()) / 1e6;
        }
        for (const auto &entry : top.takeInIndexOrder())
            kept.emplace_back(entry.key.index, entry.payload);
    }
    dataflow::detail::CandidateDecoder decoder(functional, options.enumerate);
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>> work;
    work.reserve(kept.size());
    for (const auto &[index, code] : kept)
        work.emplace_back(index, decoder.transform(code, index));
    local.enumerateMs = msSince(front_start);

    auto candidates = evaluateAndRank(std::move(work), functional, bounds,
                                      options, area_params, timing_params,
                                      local);

    if (stats)
        *stats = local;
    return candidates;
}

std::vector<DseCandidate>
evaluateAndRank(
        std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
                work,
        const func::FunctionalSpec &functional, const IntVec &bounds,
        const DseOptions &options, const model::AreaParams &area_params,
        const model::TimingParams &timing_params, DseStats &local)
{
    auto evaluate_start = Clock::now();
    // Each slot is evaluated independently; a throwing candidate leaves
    // its result slot empty and its exception in `errors`. Failure
    // isolation (and the failure *records*) therefore never depend on
    // scheduling: the reduction below walks slots in worklist order.
    std::atomic<std::size_t> retried{0};
    std::atomic<std::size_t> retry_succeeded{0};
    const bool use_memo =
            options.memo != nullptr && !options.memoSpecKey.empty();
    auto evaluate_once = [&](std::size_t i) {
        util::WatchdogScope guard("dse.candidate", options.stepBudget,
                                  options.timeBudgetMillis);
        if (!use_memo)
            return evaluateCandidate(work[i].second, work[i].first,
                                     functional, bounds, options,
                                     area_params, timing_params);
        std::string key = DesignPointMemo::candidateKey(
                options.memoSpecKey, bounds, options.dataWidth,
                options.macBits, work[i].second);
        if (auto hit = options.memo->lookup(key)) {
            // The payload's enumIndex belongs to whichever call
            // populated it; rebind to this enumeration so ranking
            // tie-breaks are identical warm or cold.
            DseCandidate candidate = *hit;
            candidate.enumIndex = work[i].first;
            return candidate;
        }
        auto candidate = evaluateCandidate(
                work[i].second, work[i].first, functional, bounds,
                options, area_params, timing_params);
        options.memo->insert(key, candidate);
        return candidate;
    };
    auto evaluate = [&](std::size_t i) {
        util::fault::ScopedContext context(work[i].first);
        if (!options.retryWallClockTimeout)
            return evaluate_once(i);
        try {
            return evaluate_once(i);
        } catch (const util::TimeoutError &err) {
            // Only wall-clock expiry can be transient; a step budget
            // counts deterministic work and would fail identically.
            if (!err.isWallClock())
                throw;
            retried.fetch_add(1, std::memory_order_relaxed);
            auto candidate = evaluate_once(i); // fresh watchdog budget
            retry_succeeded.fetch_add(1, std::memory_order_relaxed);
            return candidate;
        }
    };
    std::vector<DseCandidate> slots;
    std::vector<std::exception_ptr> errors;
    std::size_t threads = options.threads;
    if (threads == 0)
        threads = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
    if (threads == 1 || work.size() <= 1) {
        local.threadsUsed = 1;
        slots.resize(work.size());
        errors.assign(work.size(), nullptr);
        for (std::size_t i = 0; i < work.size(); i++) {
            try {
                slots[i] = evaluate(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        util::ThreadPool pool(threads);
        local.threadsUsed = pool.size();
        slots = pool.parallelMapIsolated<DseCandidate>(work.size(),
                                                       evaluate, errors);
    }

    // Deterministic reduction: classify failures in work-list (i.e.
    // enumeration) order, so counts, kinds, and records are identical
    // at every thread count.
    std::vector<DseCandidate> candidates;
    candidates.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); i++) {
        if (!errors[i]) {
            candidates.push_back(std::move(slots[i]));
            continue;
        }
        if (!options.isolateFailures)
            std::rethrow_exception(errors[i]);
        CandidateFailure failure;
        failure.enumIndex = work[i].first;
        failure.failure = util::classifyException(
                errors[i], "dse.candidate",
                "enum#" + std::to_string(work[i].first));
        local.failed++;
        local.failedByKind[std::size_t(failure.failure.kind)]++;
        local.failures.push_back(std::move(failure));
    }
    local.evaluated = candidates.size();
    local.retried = retried.load(std::memory_order_relaxed);
    local.retrySucceeded = retry_succeeded.load(std::memory_order_relaxed);
    local.evaluateMs = msSince(evaluate_start);

    // Deterministic top-K reduction: each candidate's score is a pure
    // function of its transform, so sorting by (score, enumIndex) gives
    // byte-identical rankings for serial and parallel runs.
    auto rank_start = Clock::now();
    std::sort(candidates.begin(), candidates.end(),
              [](const DseCandidate &a, const DseCandidate &b) {
                  if (a.score != b.score)
                      return a.score < b.score;
                  return a.enumIndex < b.enumIndex;
              });
    if (candidates.size() > options.topK)
        candidates.resize(options.topK);
    local.rankMs = msSince(rank_start);
    return candidates;
}

} // namespace stellar::accel
