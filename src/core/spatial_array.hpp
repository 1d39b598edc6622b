/**
 * @file
 * Physical spatial arrays (Section IV-B, Figs 9c and 11).
 *
 * Applying the space-time transform to a pruned IterationSpace folds its
 * Points onto processing elements: every distinct spatial coordinate is a
 * PE, and Points mapping to the same PE become different timesteps of
 * that PE. Surviving conn classes become PE-to-PE wires with as many
 * pipeline registers as their time displacement; IOConns become regfile
 * ports on the PEs where they fire.
 */

#ifndef STELLAR_CORE_SPATIAL_ARRAY_HPP
#define STELLAR_CORE_SPATIAL_ARRAY_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/iteration_space.hpp"
#include "dataflow/transform.hpp"
#include "mem/access_order.hpp"

namespace stellar::core
{

/** One processing element of the generated array (Fig 11). */
struct ProcessingElement
{
    IntVec position;

    /** How many iteration points fold onto this PE (time-multiplexing). */
    std::int64_t foldedPoints = 0;

    /** First and last timestep at which this PE is active. */
    std::int64_t firstTime = 0;
    std::int64_t lastTime = 0;
};

/** A physical wire class between adjacent PEs. */
struct PeWire
{
    int tensor = -1;
    IntVec spaceDelta;          //!< displacement between source and dest PE
    std::int64_t registers = 0; //!< pipeline registers on the wire (Fig 3)
    int bundleSize = 1;         //!< >1 for OptimisticSkip bundles (Fig 5)
    std::int64_t instances = 0; //!< physical wires of this class
    std::int64_t wireLength = 0;//!< Manhattan length per instance
};

/** A regfile port class on the array boundary or across all PEs. */
struct PePortClass
{
    int tensor = -1;
    int externalTensor = -1;
    bool isInput = true;
    bool perPoint = false;
    std::int64_t portCount = 0; //!< physical ports of this class
    std::int64_t maxPerCycle = 0; //!< peak simultaneous accesses per cycle
};

/** The generated spatial array. */
class SpatialArray
{
  public:
    SpatialArray() = default;
    SpatialArray(dataflow::SpaceTimeTransform transform,
                 std::vector<ProcessingElement> pes,
                 std::vector<PeWire> wires, std::vector<PePortClass> ports,
                 std::int64_t scheduleLength);

    const dataflow::SpaceTimeTransform &transform() const { return transform_; }

    const std::vector<ProcessingElement> &pes() const { return pes_; }
    const std::vector<PeWire> &wires() const { return wires_; }
    const std::vector<PePortClass> &ports() const { return ports_; }

    std::int64_t numPes() const { return std::int64_t(pes_.size()); }

    /** Extent of the array along each spatial axis (max - min + 1). */
    IntVec extents() const;

    std::int64_t totalWires() const;
    std::int64_t totalWireLength() const;
    std::int64_t totalPorts() const;

    /** Largest number of points folded onto a single PE. */
    std::int64_t maxFolding() const;

    /** Total timesteps from first input to last output. */
    std::int64_t scheduleLength() const { return scheduleLength_; }

    std::string toString(const func::FunctionalSpec &spec) const;

  private:
    dataflow::SpaceTimeTransform transform_;
    std::vector<ProcessingElement> pes_;
    std::vector<PeWire> wires_;
    std::vector<PePortClass> ports_;
    std::int64_t scheduleLength_ = 0;
};

/**
 * Map a pruned IterationSpace through a space-time transform.
 *
 * One fused pass over the iteration space computes PE folding, per-wire
 * source sets, and per-port cycle histograms together, keying every
 * per-position table by a mixed-radix int64 encoding of the (bounded)
 * spatial position. The tables are flat vectors when the spatial image
 * box and the time range fit in 2^21 slots, and hash maps over the same
 * keys otherwise. The walk charges the current watchdog one step per point.
 * A transform that maps the bounds box outside the int64 range is
 * rejected with a FatalError before any walk.
 */
SpatialArray applyTransform(const IterationSpace &space,
                            const dataflow::SpaceTimeTransform &transform);

/**
 * The order in which a spatial array consumes an input tensor or produces
 * an output tensor, derived from its IOConns and dataflow (Fig 13b):
 * per timestep, the external-tensor coordinates accessed at that step,
 * from the first to the last step with an access. Rejects the same
 * out-of-range transforms as applyTransform.
 */
mem::AccessOrder arrayAccessOrder(const IterationSpace &space,
                                  const dataflow::SpaceTimeTransform &t,
                                  int external_tensor);

} // namespace stellar::core

#endif // STELLAR_CORE_SPATIAL_ARRAY_HPP
