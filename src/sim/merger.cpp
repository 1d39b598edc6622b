#include "sim/merger.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

namespace
{

/** Fiber `f` of `m`, to be copied from an lvalue and moved from an rvalue. */
const sparse::Fiber &
fiberAt(const sparse::PartialMatrix &m, std::size_t f)
{
    return m.rowFibers[f];
}

sparse::Fiber &&
fiberAt(sparse::PartialMatrix &&m, std::size_t f)
{
    return std::move(m.rowFibers[f]);
}

/**
 * Merge a pair in one walk over their rowIds, which must be strictly
 * increasing. Each shared row is merged once; a row only one side holds
 * is copied, or moved out of an rvalue side. The merged fiber sizes are
 * the per-row lengths the cycle models charge. `pair()` names the pair
 * in the error an unsorted input raises.
 */
template <typename A, typename B, typename Name>
sparse::PartialMatrix
mergeWalk(A &&a, B &&b, const Name &pair)
{
    sparse::PartialMatrix merged;
    merged.rowIds.reserve(a.rowIds.size() + b.rowIds.size());
    merged.rowFibers.reserve(a.rowIds.size() + b.rowIds.size());
    std::size_t ia = 0, ib = 0;
    while (ia < a.rowIds.size() || ib < b.rowIds.size()) {
        bool take_a = ib == b.rowIds.size() ||
                      (ia < a.rowIds.size() && a.rowIds[ia] <= b.rowIds[ib]);
        bool take_b = ia == a.rowIds.size() ||
                      (ib < b.rowIds.size() && b.rowIds[ib] <= a.rowIds[ia]);
        std::int64_t row = take_a ? a.rowIds[ia] : b.rowIds[ib];
        if (!merged.rowIds.empty() && row <= merged.rowIds.back())
            fatal(pair() + ": partial-matrix rowIds must be strictly "
                  "increasing, but row " + std::to_string(row) +
                  " follows row " + std::to_string(merged.rowIds.back()));
        merged.rowIds.push_back(row);
        if (take_a && take_b)
            merged.rowFibers.push_back(sparse::mergeFibers(
                    a.rowFibers[ia++], b.rowFibers[ib++]));
        else if (take_a)
            merged.rowFibers.push_back(fiberAt(std::forward<A>(a), ia++));
        else
            merged.rowFibers.push_back(fiberAt(std::forward<B>(b), ib++));
    }
    return merged;
}

/**
 * The cycles a merged pair costs. A row-partitioned merger hands each
 * row to the least-loaded lane in arrival order (the hardware cannot
 * sort by length ahead of time); each lane emits one element per cycle
 * plus a startup bubble per fiber. A flattened merger pops up to
 * `throughput` elements every cycle regardless of row boundaries
 * (Fig 19b).
 */
MergerResult
pairCycles(const MergerConfig &config, MergerKind kind,
           const sparse::PartialMatrix &merged)
{
    MergerResult result;
    result.mergedElements = merged.totalElements();
    if (kind == MergerKind::Flattened) {
        result.cycles = (result.mergedElements + config.throughput - 1) /
                        config.throughput;
    } else {
        std::vector<std::int64_t> lanes(std::size_t(config.lanes), 0);
        for (const auto &fiber : merged.rowFibers)
            *std::min_element(lanes.begin(), lanes.end()) +=
                    fiber.size() + config.laneStartup;
        result.cycles = *std::max_element(lanes.begin(), lanes.end());
    }
    result.cycles = std::max<std::int64_t>(result.cycles, 1);
    return result;
}

} // namespace

MergerResult
mergePairRowPartitioned(const MergerConfig &config,
                        const sparse::PartialMatrix &a,
                        const sparse::PartialMatrix &b)
{
    return pairCycles(config, MergerKind::RowPartitioned,
                      mergePartialPair(a, b));
}

MergerResult
mergePairFlattened(const MergerConfig &config,
                   const sparse::PartialMatrix &a,
                   const sparse::PartialMatrix &b)
{
    return pairCycles(config, MergerKind::Flattened, mergePartialPair(a, b));
}

sparse::PartialMatrix
mergePartialPair(const sparse::PartialMatrix &a,
                 const sparse::PartialMatrix &b)
{
    return mergeWalk(a, b, [] { return std::string("merged pair"); });
}

MergerResult
runMergeSchedule(const MergerConfig &config, MergerKind kind,
                 const std::vector<sparse::PartialMatrix> &partials)
{
    MergerResult total;
    // SpArch's execution order: merge neighbouring partial matrices
    // pairwise, round after round, until one remains. Round one reads
    // the caller's partials; later rounds own theirs and move from them.
    const std::vector<sparse::PartialMatrix> *current = &partials;
    std::vector<sparse::PartialMatrix> owned;
    util::WatchdogBatcher dog; // one step per merged pair, batched
    while (current->size() > 1) {
        const bool mine = current == &owned;
        std::vector<sparse::PartialMatrix> next;
        next.reserve((current->size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < current->size(); i += 2) {
            auto pair = [&]() {
                return "merge round with " +
                       std::to_string(current->size()) +
                       " partial matrices, pair at " + std::to_string(i);
            };
            if (util::fault::armed())
                util::fault::checkpoint("sim.merger.pair");
            dog.step([&]() {
                return pair() + ", " +
                       std::to_string(total.mergedElements) +
                       " elements merged so far";
            });
            sparse::PartialMatrix merged =
                    mine ? mergeWalk(std::move(owned[i]),
                                     std::move(owned[i + 1]), pair)
                         : mergeWalk(partials[i], partials[i + 1], pair);
            MergerResult cost = pairCycles(config, kind, merged);
            total.cycles += cost.cycles;
            total.mergedElements += cost.mergedElements;
            next.push_back(std::move(merged));
        }
        if (current->size() % 2 == 1)
            next.push_back(mine ? std::move(owned.back()) : partials.back());
        owned = std::move(next);
        current = &owned;
    }
    return total;
}

MergerResult
runHierarchicalMerge(const MergerConfig &config,
                     const std::vector<sparse::PartialMatrix> &partials,
                     int ways)
{
    require(ways >= 2, "hierarchical merge needs at least 2 ways");
    MergerResult total;
    if (partials.empty())
        return total;
    int levels = 0;
    for (int span = 1; span < ways; span *= 2)
        levels++;

    // Process the partial stream in groups of `ways`. Each group flows
    // through the pipelined tree: output elements emerge at the
    // flattened throughput once the tree fills.
    std::size_t group_start = 0;
    util::WatchdogBatcher dog; // one step per merge-tree group
    while (group_start < partials.size()) {
        if (util::fault::armed())
            util::fault::checkpoint("sim.merger.group");
        dog.step([&]() {
            return "hierarchical merge group at " +
                   std::to_string(group_start) + "/" +
                   std::to_string(partials.size());
        });
        std::size_t group_end =
                std::min(group_start + std::size_t(ways), partials.size());
        // Functionally merge the group to get the output element count.
        sparse::PartialMatrix merged;
        for (std::size_t i = group_start; i < group_end; i++)
            merged = mergeWalk(std::move(merged), partials[i], [&]() {
                return "hierarchical merge group at " +
                       std::to_string(group_start) + ", partial " +
                       std::to_string(i);
            });
        std::int64_t elements = merged.totalElements();
        total.mergedElements += elements;
        total.cycles += (elements + config.throughput - 1) /
                        config.throughput +
                        levels; // pipeline fill
        group_start = group_end;
    }
    return total;
}

} // namespace stellar::sim
