/**
 * @file
 * Space-time transforms (Section III-B).
 *
 * A dataflow is a linear transformation T from the tensor iteration space
 * to physical space-time: T * (i, j, k)^T = (x, y, t)^T. The last row of T
 * is the time axis; the remaining rows are spatial axes. T must be
 * invertible so PEs can recover their tensor iterators from their physical
 * coordinates and time counter (Fig 11), and it must be causal: every
 * uniform recurrence must move data forward (or sideways) in time.
 */

#ifndef STELLAR_DATAFLOW_TRANSFORM_HPP
#define STELLAR_DATAFLOW_TRANSFORM_HPP

#include <optional>
#include <string>
#include <vector>

#include "func/spec.hpp"
#include "util/int_matrix.hpp"

namespace stellar::dataflow
{

/** The space-time displacement of a recurrence under a transform. */
struct SpaceTimeDelta
{
    IntVec space;       //!< per-spatial-axis displacement
    std::int64_t time;  //!< timestep displacement (pipeline depth)
};

/**
 * An invertible space-time transform. The wrapped matrix is square with
 * one row per physical dimension; by convention the final row maps to
 * time and the others to space.
 */
class SpaceTimeTransform
{
  public:
    SpaceTimeTransform() = default;
    explicit SpaceTimeTransform(IntMatrix matrix, std::string name = "");

    const IntMatrix &matrix() const { return matrix_; }
    const std::string &name() const { return name_; }

    int dims() const { return matrix_.rows(); }
    int spaceDims() const { return matrix_.rows() - 1; }

    /** Apply T to an iteration-space point; returns (space..., time). */
    IntVec apply(const IntVec &point) const;

    /** The spatial part of apply(). */
    IntVec spaceOf(const IntVec &point) const;

    /** The time part of apply(). */
    std::int64_t timeOf(const IntVec &point) const;

    /** Exact inverse, used inside PEs to recover tensor iterators. */
    const FracMatrix &inverse() const { return inverse_; }

    /**
     * Recover the iteration-space point from space-time coordinates;
     * nullopt when the rational solution is not integral (the space-time
     * position corresponds to no iteration point).
     */
    std::optional<IntVec> invert(const IntVec &space_time) const;

    /** The space/time displacement induced on a recurrence direction. */
    SpaceTimeDelta deltaOf(const IntVec &recurrence_diff) const;

    /**
     * Causality check: every recurrence of the spec must have time
     * displacement >= 0 under this transform. A zero time displacement is
     * legal but means combinational (same-cycle) chaining; see
     * pipelineDepth().
     */
    bool isCausalFor(const func::FunctionalSpec &spec) const;

    /**
     * The pipeline depth (registers per hop) of a recurrence direction:
     * its time displacement. Fig 3's pipelining strategies differ exactly
     * in these values.
     */
    std::int64_t pipelineDepth(const IntVec &recurrence_diff) const;

    std::string toString() const;

  private:
    IntMatrix matrix_;
    FracMatrix inverse_;
    std::string name_;
};

/**
 * Named dataflows for the 3-index matmul iteration space (i, j, k), as in
 * Fig 2. All map onto a 2-D spatial array.
 */
namespace dataflows
{

/** Fig 2a: input(B)-stationary; partial sums travel down the array. */
SpaceTimeTransform inputStationary();

/** Fig 2b: output-stationary; A and B stream through, C stays in place. */
SpaceTimeTransform outputStationary();

/** Fig 2c: hexagonal; all three iterators unrolled onto a 2-D plane. */
SpaceTimeTransform hexagonal();

/**
 * Fig 3: variants of the input-stationary array with different pipelining
 * aggressiveness, produced by changing the time row of T. `extra_time`
 * adds registers along the j axis: 0 = combinational broadcast of A,
 * 1 = one register per hop, 2 = two registers per hop.
 */
SpaceTimeTransform inputStationaryPipelined(std::int64_t extra_time);

} // namespace dataflows

} // namespace stellar::dataflow

#endif // STELLAR_DATAFLOW_TRANSFORM_HPP
