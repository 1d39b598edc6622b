/**
 * @file
 * Closed-form analytic candidate evaluation.
 *
 * Every structural quantity the DSE scores — PE count, schedule length,
 * array extents, dense wire-instance counts — is a property of the
 * affine image of the elaboration bounds box under the space-time
 * transform, and the box is a product of intervals, so each quantity
 * has an exact closed form (the same per-axis-span geometry as
 * IterationSpace::connInstances). Probing a candidate this way costs a
 * handful of small determinants instead of a full iteration-space walk,
 * which makes two things possible: a *lossless* maxPes prune (the
 * analytic PE count equals the elaborated one exactly), and the
 * closed-form scoring of accel/analytic_cost.hpp that the DSE's
 * analytic tier ranks every candidate by.
 *
 * All arithmetic saturates instead of wrapping: at extreme transform
 * coefficients the per-axis extents exceed the int64 range, and a
 * wrapped product would silently misclassify an astronomically large
 * design as a small one.
 */

#ifndef STELLAR_ACCEL_ANALYTIC_HPP
#define STELLAR_ACCEL_ANALYTIC_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/iteration_space.hpp"
#include "dataflow/transform.hpp"

namespace stellar::accel
{

/** One wire class predicted by the analytic evaluator. */
struct AnalyticWire
{
    int tensor = -1;
    IntVec spaceDelta;
    std::int64_t registers = 0;
    std::int64_t instances = 0; //!< distinct (source PE -> dest PE) pairs
    std::int64_t wireLength = 0;
};

/** The closed-form image of one candidate: exact elaboration counts. */
struct AnalyticProbe
{
    std::int64_t pes = 0;
    std::int64_t scheduleLength = 0;
    IntVec extents;
    std::vector<AnalyticWire> wires;

    /** True when any quantity was clamped to the int64 range. */
    bool saturated = false;

    std::int64_t totalWires() const;
    std::int64_t totalWireLength() const;
};

/**
 * Exact PE count of a transform at the given bounds, without
 * elaboration: the number of distinct spatial images of the bounds box.
 * Matches SpatialArray::numPes() of the elaborated array exactly, which
 * is what makes the DseOptions::maxPes prune lossless.
 */
std::int64_t analyticPeCount(const dataflow::SpaceTimeTransform &transform,
                             const IntVec &bounds);

/** The same count for the transform whose row-major matrix is `cells`
 *  (bounds.size() squared entries), as a DSE scan decodes it. `kernel`
 *  is the caller's scratch, so a scan worker that counts every
 *  survivor allocates once. */
std::int64_t analyticPeCount(std::span<const std::int64_t> cells,
                             const IntVec &bounds, IntVec &kernel);

/**
 * Full analytic probe of a candidate against a (possibly pruned)
 * IterationSpace: exact PE count, schedule length, extents, and
 * per-wire dense instance counts for the space's alive conn classes.
 */
AnalyticProbe analyticProbe(const dataflow::SpaceTimeTransform &transform,
                            const IntVec &bounds,
                            const core::IterationSpace &space);

namespace detail
{

/**
 * Cofactor determinant of the n x n row-major matrix at `cells`, with
 * saturating arithmetic. Exact whenever no intermediate product or sum
 * leaves the int64 range; otherwise clamped with `*saturated` set,
 * which callers must treat as "astronomically large design", never as
 * a usable magnitude.
 */
std::int64_t satDeterminant(const std::int64_t *cells, int n,
                            bool *saturated);

/**
 * Primitive generator of the integer kernel of the spatial rows of the
 * invertible d x d row-major transform matrix `cells`, written into
 * `out` (resized to d) without allocating for d <= 3.
 * Returns false when saturation collapsed the minors so no generator
 * could be derived — `out` is then the time-axis unit vector and
 * `*saturated` is set; every count derived from it is a clamp artifact.
 */
bool spatialKernelInto(const std::int64_t *cells, int d, IntVec &out,
                       bool *saturated);

/**
 * Distinct spatial images of an axis-aligned box with the given
 * per-axis spans: |box| minus the overlap of the box with its translate
 * by the kernel vector (every point whose predecessor along the kernel
 * line is also inside the box is a duplicate image).
 */
std::int64_t distinctImages(const IntVec &spans, const IntVec &kernel,
                            bool *saturated);

} // namespace detail

} // namespace stellar::accel

#endif // STELLAR_ACCEL_ANALYTIC_HPP
