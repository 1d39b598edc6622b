/**
 * @file
 * Elaboration-free analytic scoring: the complete delay-area score of a
 * DSE candidate computed in closed form, without `core::generate`.
 *
 * The probe in accel/analytic.hpp already gives the exact PE count,
 * schedule length, extents, and wire-instance counts of a candidate.
 * What the score additionally needs — per-PE pipeline registers, wire
 * track area, the regfile search depth, and the critical-path floor —
 * turns out to be either a closed form of the same per-axis geometry or
 * transform-*independent* altogether:
 *
 *  - Pipeline bits per PE are `sum(time-delta x width)` over the alive
 *    conn classes, a handful of saturating dot products.
 *  - Wire track area is `instances x L1(space-delta) x width` per conn,
 *    with `instances` from the kernel-overlap count.
 *  - In a DSE sweep the spec carries no buffer bindings, so every
 *    external tensor falls back to the fully-associative regfile whose
 *    searched-entry count equals `touchedElements` — a property of the
 *    fired IO points only, independent of the transform. Its search
 *    delay (and the SRAM/addr-gen components) is therefore a constant
 *    floor computed once per model.
 *
 * Because every accumulation below mirrors model::arrayArea /
 * model::timingOf term-for-term in the same order, the analytic score
 * is BIT-IDENTICAL to the elaborated score whenever (a) the balancing
 * spec is empty (balancing is transform-specific and prunes conns the
 * model cannot see without elaborating) and (b) nothing saturates.
 * That exactness is what lets the DSE's analytic tier keep only top-K
 * candidates and still reproduce the full ranking; the differential
 * tests pin it.
 *
 * A model instance is NOT thread-safe: score() reuses internal scratch
 * buffers so a sweep over a million candidates allocates nothing. Each
 * DSE scan worker scores with its own copy (accel::FrontHalfScorer).
 *
 * AnalyticTopK is the tier's survivor selection. exploreDataflows and
 * the shard merge (accel/records.hpp) both select through it, so a
 * merged sweep keeps exactly the survivors a single process keeps.
 */

#ifndef STELLAR_ACCEL_ANALYTIC_COST_HPP
#define STELLAR_ACCEL_ANALYTIC_COST_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/iteration_space.hpp"
#include "dataflow/transform.hpp"
#include "model/params.hpp"

namespace stellar::accel
{

/** Closed-form score of one candidate (mirrors DseCandidate's fields). */
struct AnalyticScore
{
    std::int64_t pes = 0;
    std::int64_t wires = 0;
    std::int64_t wireLength = 0;
    std::int64_t scheduleLength = 0;
    double fmaxMhz = 0.0;
    double areaUm2 = 0.0;

    /** Execution time x area; lower is better. */
    double score = 0.0;

    /**
     * True when any intermediate quantity was clamped to the int64
     * range: the numbers describe "astronomically large", not a usable
     * magnitude, and the candidate must rank after every unsaturated
     * one (see the (saturated, score, enumIndex) ordering in the DSE).
     */
    bool saturated = false;
};

/**
 * Shared precomputation for analytic scoring of one design space: the
 * elaborated + sparsity-pruned iteration space, per-conn geometry, and
 * the transform-independent regfile/SRAM delay floor. Construct once,
 * then call score() per candidate (~a hundred integer ops for a
 * 3-index spec — millions of candidates per second on one thread).
 */
class AnalyticCostModel
{
  public:
    AnalyticCostModel(const func::FunctionalSpec &functional,
                      const IntVec &bounds,
                      const sparsity::SparsitySpec &sparsity,
                      int data_width, int mac_bits,
                      const model::AreaParams &area_params,
                      const model::TimingParams &timing_params);

    /**
     * Score one candidate. Not thread-safe (reuses scratch buffers);
     * not `const` for the same reason.
     */
    AnalyticScore score(const dataflow::SpaceTimeTransform &transform);

    /** Score the candidate whose row-major matrix is `cells`, as a DSE
     *  scan decodes it; bit-identical to scoring its transform. */
    AnalyticScore score(std::span<const std::int64_t> cells);

  private:
    /** Transform-independent geometry of one alive conn class. */
    struct ConnGeometry
    {
        IntVec diff;
        int widthBits = 0;    //!< data width x bundle size
        IntVec subSpans;      //!< per-axis source sub-box span
    };

    core::IterationSpace space_;
    IntVec bounds_;
    int dims_ = 0;
    int macBits_ = 0;
    model::AreaParams area_;
    model::TimingParams timing_;
    std::vector<ConnGeometry> conns_;

    /** max(sram, addr-gen, per-tensor regfile search) — constant. */
    double constantDelayFloor_ = 0.0;

    // score() scratch, reused across calls (the allocation-free path).
    IntVec kernel_;
    IntVec spaceDelta_;
    IntVec extents_;
    std::vector<double> wireAreas_;
};

/**
 * Bounded selection of the best `k` analytically scored candidates,
 * ordered by (saturated, score, enumIndex); `Payload` rides along (the
 * coefficient code, in exploreDataflows and in the shard merge).
 *
 * The saturated flag, not the clamped magnitude, is the primary key: a
 * clamp rounds to double(INT64_MAX), which can compare *equal* to a
 * legitimately huge unsaturated score, and a tie decided by enumIndex
 * could then keep the saturated candidate over the honest one.
 */
template <typename Payload>
class AnalyticTopK
{
  public:
    struct Key
    {
        bool saturated = false;
        double score = 0.0;
        std::size_t index = 0; //!< enumeration index, the tie-break
    };

    struct Entry
    {
        Key key;
        Payload payload;
    };

    explicit AnalyticTopK(std::size_t k) : k_(k)
    {
        heap_.reserve(std::min<std::size_t>(k, 4096));
    }

    /** True when `a` ranks strictly before `b`. */
    static bool
    better(const Key &a, const Key &b)
    {
        if (a.saturated != b.saturated)
            return !a.saturated; // clamped scores rank last
        if (a.score != b.score)
            return a.score < b.score;
        return a.index < b.index;
    }

    /** Offer one candidate; `payload` is copied only if it is kept. */
    void
    offer(const Key &key, const Payload &payload)
    {
        offered_++;
        // With `better` as the heap comparator the front is the worst
        // kept entry: the eviction point.
        auto worse_first = [](const Entry &a, const Entry &b) {
            return better(a.key, b.key);
        };
        if (heap_.size() < k_) {
            heap_.push_back({key, payload});
            std::push_heap(heap_.begin(), heap_.end(), worse_first);
        } else if (!heap_.empty() && better(key, heap_.front().key)) {
            std::pop_heap(heap_.begin(), heap_.end(), worse_first);
            heap_.back() = {key, payload};
            std::push_heap(heap_.begin(), heap_.end(), worse_first);
        }
    }

    /** Candidates offered so far. */
    std::size_t offered() const { return offered_; }

    /** Candidates kept so far (at most k). */
    std::size_t kept() const { return heap_.size(); }

    /** Release the kept entries in enumeration order. */
    std::vector<Entry>
    takeInIndexOrder()
    {
        std::sort(heap_.begin(), heap_.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.key.index < b.key.index;
                  });
        return std::move(heap_);
    }

  private:
    std::size_t k_;
    std::size_t offered_ = 0;
    std::vector<Entry> heap_;
};

} // namespace stellar::accel

#endif // STELLAR_ACCEL_ANALYTIC_COST_HPP
