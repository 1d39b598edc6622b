/**
 * @file
 * Reference implementations the tests and the fuzz harness difference
 * the library against, plus small helpers they share. None of this is
 * part of libstellar: each oracle is deliberately independent of the
 * fast path it checks.
 */

#ifndef STELLAR_TESTKIT_ORACLES_HPP
#define STELLAR_TESTKIT_ORACLES_HPP

#include <vector>

#include "core/iteration_space.hpp"
#include "core/spatial_array.hpp"
#include "dataflow/enumerate.hpp"
#include "dataflow/transform.hpp"
#include "func/spec.hpp"
#include "sparse/spgemm.hpp"

namespace stellar::testkit
{

/**
 * Every survivor of dataflow::forEachTransform, in yield order; `stats`
 * receives the scan accounting when non-null. The stream's own cap on
 * the code space applies.
 */
std::vector<dataflow::SpaceTimeTransform>
collectTransforms(const func::FunctionalSpec &spec,
                  const dataflow::EnumerateOptions &options,
                  dataflow::EnumerateStats *stats = nullptr);

/**
 * The pre-streaming serial enumerator, kept verbatim as the
 * differential oracle for the stream: a plain early-exit walk over
 * every code. Ignores `options.threads` and `options.orbitCanonical`,
 * and refuses spaces over 1e8 codes.
 */
std::vector<dataflow::SpaceTimeTransform>
enumerateTransformsOracle(const func::FunctionalSpec &spec,
                          const dataflow::EnumerateOptions &options);

/**
 * Reference implementation of core::applyTransform: one full walk per
 * concern, ordered containers, no scratch reuse. The oracle for the
 * fused walk, on dense and hashed tables alike.
 */
core::SpatialArray
applyTransformNaive(const core::IterationSpace &space,
                    const dataflow::SpaceTimeTransform &transform);

/**
 * Functionally merge two partial matrices, values included: the golden
 * reference for the merger simulators, which only count elements. One
 * walk over the pair's rowIds, which must be strictly increasing (a
 * FatalError names the offending rows otherwise); a shared row goes
 * through sparse::mergeFibers, a one-sided row is copied.
 */
sparse::PartialMatrix mergePartialPair(const sparse::PartialMatrix &a,
                                       const sparse::PartialMatrix &b);

} // namespace stellar::testkit

#endif // STELLAR_TESTKIT_ORACLES_HPP
