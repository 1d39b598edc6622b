#include "sim/merger.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <utility>

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

namespace
{

using Coords = std::span<const std::int64_t>;

/**
 * One merge round's partial matrices, structure only: the cycle models
 * count elements and never read a merged value. Partial p owns rows
 * [partPtr[p], partPtr[p + 1]), and row r's coordinates are
 * coords[rowPtr[r], rowPtr[r + 1]). clear() keeps the capacity, so
 * later rounds reuse the buffers of earlier ones.
 */
struct Round
{
    std::vector<std::size_t> partPtr{0};
    std::vector<std::int64_t> rowIds;
    std::vector<std::size_t> rowPtr{0};
    std::vector<std::int64_t> coords;

    std::size_t size() const { return partPtr.size() - 1; }

    void
    clear()
    {
        partPtr.resize(1);
        rowIds.clear();
        rowPtr.resize(1);
        coords.clear();
    }
};

/** The rows of a caller's partial matrix. */
class MatrixRows
{
  public:
    explicit MatrixRows(const sparse::PartialMatrix &m) : m_(m) {}

    std::size_t rows() const { return m_.rowIds.size(); }
    std::int64_t id(std::size_t r) const { return m_.rowIds[r]; }
    Coords coords(std::size_t r) const { return m_.rowFibers[r].coords; }

  private:
    const sparse::PartialMatrix &m_;
};

/** The rows of partial `p` of a round. */
class RoundRows
{
  public:
    RoundRows(const Round &round, std::size_t p)
        : round_(round), first_(round.partPtr[p]),
          rows_(round.partPtr[p + 1] - round.partPtr[p])
    {
    }

    std::size_t rows() const { return rows_; }
    std::int64_t id(std::size_t r) const { return round_.rowIds[first_ + r]; }

    Coords
    coords(std::size_t r) const
    {
        const std::size_t begin = round_.rowPtr[first_ + r];
        return {round_.coords.data() + begin,
                round_.rowPtr[first_ + r + 1] - begin};
    }

  private:
    const Round &round_;
    std::size_t first_, rows_;
};

/**
 * Append the union of two coordinate runs to `out`, a shared coordinate
 * once. The two-pointer loop has no data-dependent branch: each step
 * emits the smaller head and advances every side that holds it. The
 * output strictly increases exactly when both runs do (a run's
 * elements keep their order and each emits its own output), so
 * checking the output checks the inputs. Returns that verdict.
 */
bool
mergeCoords(Coords a, Coords b, std::vector<std::int64_t> &out)
{
    const std::size_t base = out.size();
    out.resize(base + a.size() + b.size());
    std::int64_t *dst = out.data() + base;
    std::size_t ia = 0, ib = 0, k = 0;
    std::int64_t prev = 0;
    bool increasing = true;
    auto emit = [&](std::int64_t c) {
        increasing &= (k == 0) | (c > prev);
        dst[k++] = c;
        prev = c;
    };
    while (ia < a.size() && ib < b.size()) {
        const std::int64_t x = a[ia], y = b[ib];
        emit(x < y ? x : y);
        ia += x <= y;
        ib += y <= x;
    }
    for (; ia < a.size(); ia++)
        emit(a[ia]);
    for (; ib < b.size(); ib++)
        emit(b[ib]);
    out.resize(base + k);
    return increasing;
}

/**
 * Merge a pair in one walk over their rowIds, which must be strictly
 * increasing, and append the result to `out` as its next partial. Each
 * shared row is merged once; a row only one side holds is copied.
 * `pair()` names the pair in the error an unsorted input raises.
 */
template <typename A, typename B, typename Name>
void
mergeInto(const A &a, const B &b, Round &out, const Name &pair)
{
    const std::size_t first_row = out.rowIds.size();
    std::size_t ia = 0, ib = 0;
    while (ia < a.rows() || ib < b.rows()) {
        bool take_a = ib == b.rows() ||
                      (ia < a.rows() && a.id(ia) <= b.id(ib));
        bool take_b = ia == a.rows() ||
                      (ib < b.rows() && b.id(ib) <= a.id(ia));
        std::int64_t row = take_a ? a.id(ia) : b.id(ib);
        if (out.rowIds.size() > first_row && row <= out.rowIds.back())
            fatal(pair() + ": partial-matrix rowIds must be strictly "
                  "increasing, but row " + std::to_string(row) +
                  " follows row " + std::to_string(out.rowIds.back()));
        out.rowIds.push_back(row);
        if (take_a && take_b) {
            if (!mergeCoords(a.coords(ia++), b.coords(ib++), out.coords))
                panic(pair() + ": row " + std::to_string(row) + " of both "
                      "partials must have strictly increasing coords");
        } else {
            Coords run = take_a ? a.coords(ia++) : b.coords(ib++);
            out.coords.insert(out.coords.end(), run.begin(), run.end());
        }
        out.rowPtr.push_back(out.coords.size());
    }
    out.partPtr.push_back(out.rowIds.size());
}

/** Append partial `p`'s rows to `out` unchanged, as its next partial. */
template <typename P>
void
copyInto(const P &p, Round &out)
{
    for (std::size_t r = 0; r < p.rows(); r++) {
        out.rowIds.push_back(p.id(r));
        Coords run = p.coords(r);
        out.coords.insert(out.coords.end(), run.begin(), run.end());
        out.rowPtr.push_back(out.coords.size());
    }
    out.partPtr.push_back(out.rowIds.size());
}

void
requireFields(const MergerConfig &config, MergerKind kind)
{
    if (kind == MergerKind::RowPartitioned)
        require(config.lanes >= 1, "MergerConfig::lanes must be at least 1");
    else
        require(config.throughput >= 1,
                "MergerConfig::throughput must be at least 1");
}

/**
 * The cycles the last partial of `round`, a merged pair, costs. A
 * row-partitioned merger hands each row to the least-loaded lane in
 * arrival order (the hardware cannot sort by length ahead of time);
 * each lane emits one element per cycle plus a startup bubble per
 * fiber. The lanes are a min-heap, `lanes` its scratch. When several
 * lanes tie for least loaded the heap may pick another one than a scan
 * would, but both add the same load to the same value, so the multiset
 * of loads, and its max, is the same. A flattened merger pops up to
 * `throughput` elements every cycle regardless of row boundaries
 * (Fig 19b).
 */
MergerResult
pairCycles(const MergerConfig &config, MergerKind kind, const Round &round,
           std::vector<std::int64_t> &lanes)
{
    const std::size_t first = round.partPtr[round.size() - 1];
    const std::size_t last = round.partPtr[round.size()];
    MergerResult result;
    result.mergedElements =
            std::int64_t(round.rowPtr[last] - round.rowPtr[first]);
    if (kind == MergerKind::Flattened) {
        result.cycles = (result.mergedElements + config.throughput - 1) /
                        config.throughput;
    } else {
        lanes.assign(std::size_t(config.lanes), 0);
        const std::size_t n = lanes.size();
        for (std::size_t r = first; r < last; r++) {
            // Load the lightest lane, then sift it down.
            const std::int64_t load =
                    lanes[0] + std::int64_t(round.rowPtr[r + 1] -
                                            round.rowPtr[r]) +
                    config.laneStartup;
            std::size_t at = 0;
            for (std::size_t child = 1; child < n; child = 2 * at + 1) {
                if (child + 1 < n && lanes[child + 1] < lanes[child])
                    child++;
                if (lanes[child] >= load)
                    break;
                lanes[at] = lanes[child];
                at = child;
            }
            lanes[at] = load;
        }
        result.cycles = *std::max_element(lanes.begin(), lanes.end());
    }
    result.cycles = std::max<std::int64_t>(result.cycles, 1);
    return result;
}

MergerResult
mergePair(const MergerConfig &config, MergerKind kind,
          const sparse::PartialMatrix &a, const sparse::PartialMatrix &b)
{
    requireFields(config, kind);
    Round merged;
    mergeInto(MatrixRows(a), MatrixRows(b), merged,
              [] { return std::string("merged pair"); });
    std::vector<std::int64_t> lanes;
    return pairCycles(config, kind, merged, lanes);
}

} // namespace

MergerResult
mergePairRowPartitioned(const MergerConfig &config,
                        const sparse::PartialMatrix &a,
                        const sparse::PartialMatrix &b)
{
    return mergePair(config, MergerKind::RowPartitioned, a, b);
}

MergerResult
mergePairFlattened(const MergerConfig &config,
                   const sparse::PartialMatrix &a,
                   const sparse::PartialMatrix &b)
{
    return mergePair(config, MergerKind::Flattened, a, b);
}

MergerResult
runMergeSchedule(const MergerConfig &config, MergerKind kind,
                 const std::vector<sparse::PartialMatrix> &partials)
{
    requireFields(config, kind);
    MergerResult total;
    // SpArch's execution order: merge neighbouring partial matrices
    // pairwise, round after round, until one remains. Round one reads
    // the caller's partials; each later round reads the last round's
    // buffers and writes into the ones the round before it used.
    Round current, next;
    std::vector<std::int64_t> lanes;
    util::WatchdogBatcher dog; // one step per merged pair, batched
    auto run_round = [&](std::size_t count, const auto &partial_at) {
        next.clear();
        for (std::size_t i = 0; i + 1 < count; i += 2) {
            auto pair = [&]() {
                return "merge round with " + std::to_string(count) +
                       " partial matrices, pair at " + std::to_string(i);
            };
            if (util::fault::armed())
                util::fault::checkpoint("sim.merger.pair");
            dog.step([&]() {
                return pair() + ", " +
                       std::to_string(total.mergedElements) +
                       " elements merged so far";
            });
            mergeInto(partial_at(i), partial_at(i + 1), next, pair);
            MergerResult cost = pairCycles(config, kind, next, lanes);
            total.cycles += cost.cycles;
            total.mergedElements += cost.mergedElements;
        }
        if (count % 2 == 1)
            copyInto(partial_at(count - 1), next);
        std::swap(current, next);
    };
    if (partials.size() > 1)
        run_round(partials.size(),
                  [&](std::size_t i) { return MatrixRows(partials[i]); });
    while (current.size() > 1)
        run_round(current.size(),
                  [&](std::size_t i) { return RoundRows(current, i); });
    return total;
}

MergerResult
runHierarchicalMerge(const MergerConfig &config,
                     const std::vector<sparse::PartialMatrix> &partials,
                     int ways)
{
    require(ways >= 2, "hierarchical merge needs at least 2 ways");
    requireFields(config, MergerKind::Flattened);
    MergerResult total;
    if (partials.empty())
        return total;
    // ceil(log2(ways)) comparator levels.
    const int levels = std::bit_width(unsigned(ways) - 1u);

    // Process the partial stream in groups of `ways`. Each group flows
    // through the pipelined tree: output elements emerge at the
    // flattened throughput once the tree fills.
    std::size_t group_start = 0;
    Round merged, scratch;
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
        // Merge the group's structure to get the output element count,
        // starting from an empty partial.
        merged.clear();
        merged.partPtr.push_back(0);
        for (std::size_t i = group_start; i < group_end; i++) {
            scratch.clear();
            mergeInto(RoundRows(merged, 0), MatrixRows(partials[i]),
                      scratch, [&]() {
                          return "hierarchical merge group at " +
                                 std::to_string(group_start) +
                                 ", partial " + std::to_string(i);
                      });
            std::swap(merged, scratch);
        }
        std::int64_t elements = std::int64_t(merged.coords.size());
        total.mergedElements += elements;
        total.cycles += (elements + config.throughput - 1) /
                        config.throughput +
                        levels; // pipeline fill
        group_start = group_end;
    }
    return total;
}

} // namespace stellar::sim
