/**
 * @file
 * Cycle-level models of the partial-matrix mergers of Section VI-D
 * (Figs 18 and 19).
 *
 * Row-partitioned mergers (GAMMA-style, Fig 19a) assign each row fiber of
 * a partial-matrix pair to one of L lanes; each lane emits one merged
 * element per cycle, so imbalanced row lengths strand lanes. Flattened
 * mergers (SpArch-style, Fig 19b) treat the pair as one flattened fiber
 * and pop up to T elements per cycle regardless of row boundaries.
 *
 * Both mergers process the same SpArch-order merge schedule: partial
 * matrices produced by consecutive outer products are merged pairwise in
 * rounds until one matrix remains. Every partial's rowIds must be
 * strictly increasing; a merge rejects any other order as a FatalError.
 * A row both sides of a pair hold must have strictly increasing coords
 * on each side.
 *
 * The cycle models only count elements, so a merge walks coordinates
 * and never reads or sums a value. A config field the model divides by
 * or loops over (`lanes` for row-partitioned runs, `throughput` for
 * flattened and hierarchical ones) must be at least 1, or the run
 * raises a FatalError naming it.
 */

#ifndef STELLAR_SIM_MERGER_HPP
#define STELLAR_SIM_MERGER_HPP

#include <cstdint>
#include <vector>

#include "sparse/spgemm.hpp"

namespace stellar::sim
{

/** Merger configurations of Section VI-D. */
struct MergerConfig
{
    /** Row-partitioned lanes (the paper generates 32). */
    int lanes = 32;

    /** Flattened throughput in elements/cycle (SpArch uses 16). */
    int throughput = 16;

    /** Per-fiber startup cycles on a row-partitioned lane. */
    int laneStartup = 2;
};

/** Result of one merge run. */
struct MergerResult
{
    std::int64_t cycles = 0;
    std::int64_t mergedElements = 0;

    double
    elementsPerCycle() const
    {
        return cycles == 0 ? 0.0
                           : double(mergedElements) / double(cycles);
    }
};

/** Merge one pair of partial matrices on a row-partitioned merger. */
MergerResult mergePairRowPartitioned(const MergerConfig &config,
                                     const sparse::PartialMatrix &a,
                                     const sparse::PartialMatrix &b);

/** Merge one pair of partial matrices on a flattened merger. */
MergerResult mergePairFlattened(const MergerConfig &config,
                                const sparse::PartialMatrix &a,
                                const sparse::PartialMatrix &b);

/** Which merger micro-architecture to simulate. */
enum class MergerKind { RowPartitioned, Flattened };

/**
 * Run the full SpArch-order pairwise merge schedule over the partial
 * matrices of one SpGEMM, accumulating cycles and emitted elements.
 */
MergerResult runMergeSchedule(const MergerConfig &config, MergerKind kind,
                              const std::vector<sparse::PartialMatrix>
                                      &partials);

/**
 * SpArch's hierarchical merge tree (Section IV-F): up to `ways` partial
 * matrices are merged at once through a pipelined tree of flattened
 * comparator stages. All levels run concurrently, so a W-way merge of E
 * total elements costs about E/throughput cycles plus the tree's fill
 * latency — far fewer passes than pairwise merging, paid for with the
 * 13x area of Section IV-F.
 */
MergerResult runHierarchicalMerge(const MergerConfig &config,
                                  const std::vector<sparse::PartialMatrix>
                                          &partials,
                                  int ways);

} // namespace stellar::sim

#endif // STELLAR_SIM_MERGER_HPP
