/**
 * @file
 * Automated design-space exploration: enumerate dataflows for a
 * functional specification, generate candidate accelerators, and rank
 * them by a delay-area product from the timing and area models — the
 * "rapid design space exploration" loop the paper's introduction
 * motivates. The front half scans coefficient codes, scoring each
 * survivor in closed form on the scan workers (FrontHalfScorer), and
 * builds transforms only for the codes it keeps for elaboration.
 */

#ifndef STELLAR_ACCEL_DSE_HPP
#define STELLAR_ACCEL_DSE_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "accel/analytic_cost.hpp"
#include "core/accelerator.hpp"
#include "dataflow/enumerate.hpp"
#include "model/params.hpp"
#include "util/failure.hpp"
#include "util/memo.hpp"

namespace stellar::accel
{

/** One explored design point. */
struct DseCandidate
{
    dataflow::SpaceTimeTransform transform;

    /** Position in the enumeration order; the deterministic tie-break. */
    std::size_t enumIndex = 0;

    std::int64_t pes = 0;
    std::int64_t wires = 0;
    std::int64_t wireLength = 0;
    std::int64_t scheduleLength = 0;
    double fmaxMhz = 0.0;
    double areaUm2 = 0.0;

    /** Execution time x area; lower is better. */
    double score = 0.0;
};

/**
 * Cross-call memo of elaborated design points (the declared next rung
 * of the workload cache): key = canonical spec identity + elaboration
 * bounds + model widths + transform, payload = the scored candidate.
 * A repeat exploration of the same space — a serve daemon answering
 * the same query twice, or a sweep revisiting a transform — skips
 * `core::generate` entirely and replays the score.
 *
 * Only *successful* evaluations are memoized: failures must re-run so
 * per-request budgets and fault injection keep their meaning, and a
 * candidate that timed out under one budget is not poisoned for a
 * caller with a larger one.
 *
 * Thread-safe (backed by util::MemoCache); share one instance across
 * concurrent exploreDataflows calls freely.
 */
class DesignPointMemo
{
  public:
    /** `byte_budget` of 0 means unlimited. */
    explicit DesignPointMemo(std::uint64_t byte_budget = 0)
        : cache_(byte_budget)
    {
    }

    /**
     * The canonical key for one candidate. `spec_key` is the caller's
     * canonical identity for everything that determines a score besides
     * the transform and bounds: the functional spec, sparsity,
     * balancing, and area/timing params (FunctionalSpec has no
     * canonical serializer, so the caller owns this). Keys also fold in
     * dataWidth/macBits and the full transform matrix, so distinct
     * design points can never alias.
     */
    static std::string candidateKey(
            const std::string &spec_key, const IntVec &bounds,
            int data_width, int mac_bits,
            const dataflow::SpaceTimeTransform &transform);

    /** The memoized candidate for `key`, or nullptr. */
    std::shared_ptr<const DseCandidate> lookup(const std::string &key);

    /** Memoize a (successful) candidate; returns the resident payload
     *  (the incumbent wins if another thread inserted first). */
    std::shared_ptr<const DseCandidate> insert(const std::string &key,
                                               DseCandidate candidate);

    /** Visit every resident entry as fn(key, candidate) in the stable
     *  snapshot order of MemoCache::forEach. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        cache_.forEach([&](const std::string &key,
                           const std::shared_ptr<const void> &payload,
                           std::uint64_t) {
            fn(key,
               *std::static_pointer_cast<const DseCandidate>(payload));
        });
    }

    util::MemoStats stats() const { return cache_.stats(); }
    void clear() { cache_.clear(); }

  private:
    util::MemoCache cache_;
};

/** Exploration settings. */
struct DseOptions
{
    dataflow::EnumerateOptions enumerate;
    std::size_t topK = 10;
    int dataWidth = 8;
    int macBits = 8;

    /**
     * Worker threads for candidate evaluation: 0 = hardware concurrency,
     * 1 = serial in the calling thread. Rankings are byte-identical for
     * every thread count: each candidate is scored independently and the
     * reduction sorts by (score, enumeration index).
     */
    std::size_t threads = 0;

    /**
     * Skip candidates with more than this many PEs before elaborating
     * them (0 = keep everything). The filter uses the closed-form
     * analyticPeCount, which equals the elaborated PE count exactly, so
     * the prune is lossless: it removes precisely the candidates whose
     * elaborated array would exceed the cap, never a survivor.
     */
    std::int64_t maxPes = 0;

    /**
     * Three-tier exploration: when nonzero, every candidate surviving
     * the maxPes prune is scored by the closed-form AnalyticCostModel
     * as the coefficient scan streams it (no elaboration — millions of
     * candidates per second), a deterministic AnalyticTopK ordered by
     * (saturated, analytic score, enumIndex) keeps the best
     * `analyticTopK`, and only those survivors are fully elaborated and
     * exactly re-scored. The rest are counted in
     * DseStats::analyticFiltered. The heap is the only O(K) state, so
     * hop-4-scale walks (1e8 codes) fit under `enumerate.limit`.
     *
     * With an empty balancing spec the analytic score is bit-identical
     * to the elaborated one, so the final ranking equals a full run's
     * top-K exactly (the differential tests pin this). With balancing,
     * the analytic score ignores the balance pruning and the tier is a
     * heuristic filter — set this comfortably above topK. The scan
     * workers score their own survivors, but the heap takes them in
     * enumeration order, so rankings stay byte-identical at any thread
     * or enumeration-shard count. 0 disables the tier.
     */
    std::size_t analyticTopK = 0;

    /** Optional sparsity/balancing applied to every candidate, so the
     *  search sees the interactions between dataflow and the other
     *  concerns (pruned conns change both wiring and regfile cost). */
    sparsity::SparsitySpec sparsity;
    balance::BalanceSpec balancing;

    /**
     * Per-candidate watchdog step budget for elaboration and scoring
     * (0 = unlimited). A candidate that exceeds it raises TimeoutError
     * and is recorded as a Timeout failure instead of wedging a worker.
     */
    std::int64_t stepBudget = 0;

    /**
     * Per-candidate wall-clock deadline in milliseconds (0 = none),
     * checked at the same batch boundaries as the simulators' (see
     * util/watchdog.hpp). Step budgets are the deterministic choice for
     * trusted specs; the deadline exists for untrusted external inputs
     * whose step counts cannot be bounded ahead of time. Expiry is
     * recorded as a Timeout failure with TimeoutError::isWallClock set.
     */
    std::int64_t timeBudgetMillis = 0;

    /**
     * Retry a candidate whose evaluation expired its *wall-clock*
     * deadline (TimeoutError::isWallClock) exactly once, under a fresh
     * watchdog. Wall-clock expiry is the one nondeterministic failure
     * in the taxonomy — a noisy neighbour or cold cache can push a
     * healthy candidate past the deadline — so one retry recovers
     * transients without masking repeatable pathology. Step-budget
     * timeouts are deterministic and are never retried. Counted in
     * DseStats::{retried, retrySucceeded}; non-faulted rankings are
     * unchanged by this option at every thread count.
     */
    bool retryWallClockTimeout = false;

    /**
     * When true (the default), a candidate whose evaluation throws is
     * recorded in DseStats::failures and exploration continues; failed
     * candidates rank nowhere and rankings stay byte-identical across
     * thread counts. When false, the first failure (by enumeration
     * order) is rethrown to the caller.
     */
    bool isolateFailures = true;

    /**
     * Optional cross-call design-point memo, consulted per candidate
     * before elaboration and fed every successful score. Ignored unless
     * `memoSpecKey` is also nonempty. Memo hits replay the identical
     * scored candidate (enumIndex rebound to this call's enumeration),
     * so rankings are byte-identical warm or cold.
     */
    DesignPointMemo *memo = nullptr;

    /** Canonical spec identity for memo keys — see
     *  DesignPointMemo::candidateKey for what it must cover. Empty
     *  disables the memo. */
    std::string memoSpecKey;
};

/** One candidate whose evaluation failed, with the classified cause. */
struct CandidateFailure
{
    /** The candidate's position in the enumeration order. */
    std::size_t enumIndex = 0;
    util::Failure failure;
};

/** Counters and phase timings of one exploreDataflows call. */
struct DseStats
{
    std::size_t enumerated = 0;  //!< distinct transforms found
    std::size_t evaluated = 0;   //!< candidates fully elaborated+scored
    std::size_t prunedEarly = 0; //!< skipped by the exact maxPes prune
    std::size_t failed = 0;      //!< candidates that threw (isolated)

    /** Candidates scored by the analytic tier (DseOptions::analyticTopK). */
    std::size_t analyticRanked = 0;
    /** Candidates the analytic tier dropped (never elaborated). */
    std::size_t analyticFiltered = 0;
    std::size_t threadsUsed = 1;

    /**
     * Coefficient codes the scan skipped by orbit canonicalization
     * before decoding (codes, not transforms — they never reach
     * `enumerated`, so the accounting invariant over `enumerated` is
     * unchanged; consistency is pinned by `enumeration`'s own
     * invariants: codesExamined == orbitSkipped + feasibilitySkipped +
     * decoded and decoded == rejected + duplicates + yielded).
     */
    std::size_t orbitSkipped = 0;

    /** Full accounting of the underlying coefficient-code scan. */
    dataflow::EnumerateStats enumeration;

    /** Wall-clock-timeout candidates re-run once (retryWallClockTimeout). */
    std::size_t retried = 0;
    /** Retries whose second run completed (counted in `evaluated`). */
    std::size_t retrySucceeded = 0;

    /** failed, broken down by util::FailureKind (indexed by the enum). */
    std::array<std::size_t, util::kFailureKindCount> failedByKind{};

    /** Every isolated failure, in enumeration order — deterministic
     *  across thread counts. */
    std::vector<CandidateFailure> failures;

    /** Front-half wall time: the scan with its in-worker scoring, the
     *  prune and the top-K. */
    double enumerateMs = 0.0;
    /** Time inside AnalyticCostModel::score calls, summed over the scan
     *  workers (so it can exceed enumerateMs on several threads); 0 when
     *  the tier did not filter (analyticRanked == 0). */
    double analyticMs = 0.0;
    double evaluateMs = 0.0;  //!< wall time elaborating + scoring
    double rankMs = 0.0;      //!< wall time in the top-K reduction

    /** Evaluation throughput over the evaluate phase. */
    double candidatesPerSecond() const;

    /** Closed-form scoring throughput over the analytic tier. */
    double analyticCandidatesPerSecond() const;
};

/**
 * The DSE front half's survivor scorer: the exact maxPes prune
 * (analyticPeCount equals the elaborated numPes()) and, in a tiered run,
 * the AnalyticCostModel score with the widths of `options`, timed into
 * `score_nanos` (which must outlive the scorer and its clones). The
 * constructor builds the model, so its iteration-space walk charges the
 * constructing thread's watchdog; the workers' clones walk nothing.
 */
class FrontHalfScorer final : public dataflow::SurvivorScorer
{
  public:
    FrontHalfScorer(const func::FunctionalSpec &functional,
                    const IntVec &bounds, const DseOptions &options,
                    const model::AreaParams &area_params,
                    const model::TimingParams &timing_params,
                    std::atomic<std::int64_t> &score_nanos);

    std::unique_ptr<dataflow::SurvivorScorer> clone() const override;
    dataflow::Verdict score(std::span<const std::int64_t> cells) override;

  private:
    IntVec bounds_;
    std::int64_t maxPes_ = 0;
    IntVec kernel_; //!< analyticPeCount's scratch
    std::optional<AnalyticCostModel> model_; //!< only in a tiered run
    std::atomic<std::int64_t> *scoreNanos_;
};

/**
 * Explore dataflows for a spec at the given elaboration bounds. The
 * returned candidates are sorted by ascending score (best first), ties
 * broken by enumeration index, so the ranking is deterministic across
 * runs and thread counts. When `stats` is non-null it receives the
 * counters for this call; `evaluated + prunedEarly + analyticFiltered +
 * failed == enumerated` always holds, and with the default
 * isolateFailures a throwing candidate becomes a recorded
 * CandidateFailure rather than an exception out of this call.
 *
 * The front half is one dataflow::SurvivorStream of plain codes: the
 * scan workers compute each survivor's verdict with a FrontHalfScorer,
 * and the in-order consumer applies the maxPes prune, then keeps either
 * the analytic top-K codes (analyticTopK > 0) or every code. Only the
 * kept codes become transforms, through the CandidateDecoder the shard
 * merge also uses, before evaluateAndRank elaborates them.
 */
std::vector<DseCandidate> exploreDataflows(
        const func::FunctionalSpec &functional, const IntVec &bounds,
        const DseOptions &options, const model::AreaParams &area_params,
        const model::TimingParams &timing_params,
        DseStats *stats = nullptr);

/**
 * The evaluate + rank back half of exploreDataflows: elaborate and
 * exactly score each `(enumIndex, transform)` work item (threaded per
 * `options.threads`, failures isolated per `options.isolateFailures`,
 * memo consulted per `options.memo`), classify failures in work order,
 * then sort by (score, enumIndex) and truncate to `options.topK`.
 * Fills the evaluate/rank fields of `stats` (evaluated, failed,
 * failedByKind, failures, retried, retrySucceeded, threadsUsed,
 * evaluateMs, rankMs). Exposed so the shard-merge path
 * (src/accel/records.hpp) elaborates its folded survivor set through
 * exactly this code, keeping merged output byte-identical to a
 * single-process run.
 */
std::vector<DseCandidate> evaluateAndRank(
        std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
                work,
        const func::FunctionalSpec &functional, const IntVec &bounds,
        const DseOptions &options, const model::AreaParams &area_params,
        const model::TimingParams &timing_params, DseStats &stats);

} // namespace stellar::accel

#endif // STELLAR_ACCEL_DSE_HPP
