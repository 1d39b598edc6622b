#include "sim/merger.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

namespace
{

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/** One fiber of a partial matrix, filed under its row. */
struct Holding
{
    std::int64_t row;
    std::size_t partial;
    const sparse::Fiber *fiber;
};

/**
 * Every fiber of `partials`, grouped by row: row ids ascend, and a
 * row's holdings keep partial order. A stable LSD radix pass over the
 * ids' bytes (with the sign bit flipped, so byte order is signed
 * order) skips the bytes every id shares. It compares nothing and
 * allocates nothing sized by the id values.
 */
std::vector<Holding>
transpose(std::span<const sparse::PartialMatrix *const> partials)
{
    std::vector<Holding> rows;
    for (std::size_t p = 0; p < partials.size(); p++) {
        const sparse::PartialMatrix &m = *partials[p];
        for (std::size_t f = 0; f < m.rowIds.size(); f++)
            rows.push_back({m.rowIds[f], p, &m.rowFibers[f]});
    }
    auto key = [](const Holding &h) {
        return std::uint64_t(h.row) ^ (std::uint64_t(1) << 63);
    };
    std::array<std::array<std::size_t, 256>, 8> counts{};
    for (const Holding &h : rows)
        for (int d = 0; d < 8; d++)
            counts[d][(key(h) >> (8 * d)) & 255]++;
    std::vector<Holding> sorted(rows.size());
    for (int d = 0; d < 8; d++) {
        auto &count = counts[d];
        if (std::find(count.begin(), count.end(), rows.size()) !=
                count.end())
            continue;
        std::size_t at = 0;
        for (std::size_t &c : count)
            at += std::exchange(c, at);
        for (const Holding &h : rows)
            sorted[count[(key(h) >> (8 * d)) & 255]++] = h;
        rows.swap(sorted);
    }
    return rows;
}

/** Calls `f(row)` for each row's run of `holdings`, which transpose()
 *  grouped. */
template <typename F>
void
forEachRow(std::span<const Holding> holdings, F &&f)
{
    for (std::size_t begin = 0, end; begin < holdings.size(); begin = end) {
        end = begin + 1;
        while (end < holdings.size() &&
               holdings[end].row == holdings[begin].row)
            end++;
        f(holdings.subspan(begin, end - begin));
    }
}

/**
 * Walks one row's holdings in partial order through an open-addressing
 * table from coordinate to the last partial holding it, sized to the
 * row. `charge(e, prev)` runs for each coordinate of holding e that an
 * earlier partial holds, `prev` being the latest such partial. A
 * coordinate a partial repeats is charged nothing. `unsorted(e, before,
 * after)` runs for each holding whose coords do not strictly increase
 * while another partial holds the row: `before` and `after` are the
 * nearest such partials before and after holding e's, or kNone. A row
 * with one holding is skipped. The table keeps the largest size a row
 * needed, and a row empties only the slots it filled.
 */
class RowWalker
{
  public:
    template <typename Charge, typename Unsorted>
    void
    walk(std::span<const Holding> row, Charge &&charge, Unsorted &&unsorted)
    {
        if (row.size() < 2)
            return;
        std::size_t elements = 0;
        for (const Holding &h : row)
            elements += h.fiber->coords.size();
        fit(elements);
        for (std::size_t e = 0; e < row.size(); e++) {
            const std::size_t p = row[e].partial;
            const std::vector<std::int64_t> &coords = row[e].fiber->coords;
            bool increasing = true;
            for (std::size_t i = 0; i < coords.size(); i++) {
                increasing &= i == 0 || coords[i] > coords[i - 1];
                const std::size_t prev = exchange(coords[i], p);
                if (prev != kNone && prev != p)
                    charge(e, prev);
            }
            if (increasing)
                continue;
            const auto [before, after] = neighbours(row, e);
            if (before != kNone || after != kNone)
                unsorted(e, before, after);
        }
        for (std::size_t i : filled_)
            slots_[i].holder = kNone;
        filled_.clear();
    }

  private:
    struct Slot
    {
        std::int64_t coord;
        std::size_t holder;
    };

    /** The nearest partials before and after holding e's that hold its
     *  row too, or kNone. */
    static std::pair<std::size_t, std::size_t>
    neighbours(std::span<const Holding> row, std::size_t e)
    {
        const std::size_t p = row[e].partial;
        std::size_t before = kNone, after = kNone;
        for (std::size_t i = e; i-- > 0 && before == kNone;)
            if (row[i].partial != p)
                before = row[i].partial;
        for (std::size_t i = e + 1; i < row.size() && after == kNone; i++)
            if (row[i].partial != p)
                after = row[i].partial;
        return {before, after};
    }

    void
    fit(std::size_t elements)
    {
        std::size_t size = 16;
        while (size < 2 * elements)
            size *= 2;
        if (slots_.size() < size)
            slots_.assign(size, Slot{0, kNone});
        mask_ = size - 1;
        shift_ = 64 - std::countr_zero(size);
    }

    /** Make `holder` the last holder of `coord`; returns the one
     *  before, or kNone. */
    std::size_t
    exchange(std::int64_t coord, std::size_t holder)
    {
        std::size_t i = std::size_t(
                (std::uint64_t(coord) * 0x9E3779B97F4A7C15ull) >> shift_);
        while (slots_[i].holder != kNone && slots_[i].coord != coord)
            i = (i + 1) & mask_;
        const std::size_t prev = slots_[i].holder;
        if (prev == kNone)
            filled_.push_back(i);
        slots_[i] = Slot{coord, holder};
        return prev;
    }

    std::vector<Slot> slots_; //!< all empty between rows
    std::vector<std::size_t> filled_;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

/**
 * The first defect a merge meets. `step` is the pair (or, in a
 * hierarchical merge, the partial) at which it raises; within a step,
 * defects are ordered by `row`: an unsorted row, or the row a
 * descending rowId follows, an unsorted row first on a tie.
 */
struct Defect
{
    std::size_t step = kNone;
    std::int64_t row = 0;
    bool descent = false;
    std::int64_t follower = 0; //!< the row that follows `row`

    void
    keep(const Defect &other)
    {
        if (std::tie(other.step, other.row, other.descent) <
                std::tie(step, row, descent))
            *this = other;
    }

    [[noreturn]] void
    raise(const std::string &where) const
    {
        if (descent)
            fatal(where + ": partial-matrix rowIds must be strictly "
                  "increasing, but row " + std::to_string(follower) +
                  " follows row " + std::to_string(row));
        panic(where + ": row " + std::to_string(row) + " of both "
              "partials must have strictly increasing coords");
    }
};

/** Partial `p`'s first rowId that does not exceed the one before it,
 *  as a defect at `step`; step kNone when the ids strictly increase. */
Defect
descentOf(const sparse::PartialMatrix &m, std::size_t step)
{
    for (std::size_t k = 1; k < m.rowIds.size(); k++)
        if (m.rowIds[k] <= m.rowIds[k - 1])
            return {step, m.rowIds[k - 1], true, m.rowIds[k]};
    return {};
}

/**
 * SpArch's pairwise schedule over n partials as a tree: level 0 holds
 * the partials, and round L merges the nodes of level L - 1 pairwise,
 * the last one alone when their count is odd. Node j of level L covers
 * partials [j << L, (j + 1) << L). Pairs are numbered in the order the
 * rounds run them.
 */
struct Schedule
{
    explicit Schedule(std::size_t n) : count{n}
    {
        while (count.back() > 1)
            count.push_back((count.back() + 1) / 2);
        firstPair.push_back(0);
        for (std::size_t l = 0; l < rounds(); l++)
            firstPair.push_back(firstPair.back() + count[l] / 2);
    }

    std::size_t rounds() const { return count.size() - 1; }
    std::size_t pairs() const { return firstPair.back(); }

    /** The pair that makes node j of level L, or kNone when that node
     *  is its one child carried over. */
    std::size_t
    pairOf(std::size_t level, std::size_t j) const
    {
        return 2 * j + 1 < count[level - 1] ? firstPair[level - 1] + j
                                            : kNone;
    }

    std::vector<std::size_t> count;     //!< nodes per level
    std::vector<std::size_t> firstPair; //!< round L's first at [L - 1]
};

/**
 * What the cycle models read of a pairwise schedule: each pair's merged
 * elements and, for a row-partitioned merger, its merged row lengths
 * in row order.
 */
struct PairCounts
{
    std::vector<std::int64_t> elements;
    std::vector<std::size_t> rowPtr; //!< pair q's rows: [rowPtr[q], rowPtr[q + 1])
    std::vector<std::int64_t> lengths;
    Defect defect;
};

/**
 * Count the schedule's merged rows without merging them. Holders p' < p
 * of a coordinate first meet in node p >> L of level L = bit_width(p' ^
 * p), so that is where the coordinate is charged as one collision. A
 * pair node's row is its holders' fibers minus the collisions at or
 * below its level.
 */
PairCounts
countPairs(const Schedule &tree,
           std::span<const sparse::PartialMatrix *const> partials,
           bool keep_rows)
{
    PairCounts out;
    out.elements.assign(tree.pairs(), 0);
    const std::size_t rounds = tree.rounds();
    // A partial is first walked in the lowest round whose node holding
    // it has a sibling, and raises its first descent there.
    for (std::size_t p = 0; p < partials.size(); p++) {
        std::size_t level = 1;
        while (((p >> (level - 1)) ^ 1) >= tree.count[level - 1])
            level++;
        out.defect.keep(
                descentOf(*partials[p], tree.pairOf(level, p >> level)));
    }

    const std::vector<Holding> holdings = transpose(partials);
    RowWalker walker;
    std::vector<std::uint32_t> charges; // per holding, per level
    std::vector<std::int64_t> left;     // per holding: not yet collided
    std::vector<std::pair<std::size_t, std::int64_t>> rows; // (pair, length)
    forEachRow(holdings, [&](std::span<const Holding> row) {
        charges.assign(row.size() * (rounds + 1), 0);
        walker.walk(
                row,
                [&](std::size_t e, std::size_t prev) {
                    charges[e * (rounds + 1) +
                            std::size_t(std::bit_width(
                                    prev ^ row[e].partial))]++;
                },
                // An unsorted fiber raises where its row first meets
                // another holder's.
                [&](std::size_t e, std::size_t before, std::size_t after) {
                    const std::size_t p = row[e].partial;
                    std::size_t level = kNone;
                    for (std::size_t q : {before, after})
                        if (q != kNone)
                            level = std::min(
                                    level,
                                    std::size_t(std::bit_width(p ^ q)));
                    out.defect.keep({tree.pairOf(level, p >> level),
                                     row[e].row, false, 0});
                });
        left.resize(row.size());
        for (std::size_t e = 0; e < row.size(); e++)
            left[e] = std::int64_t(row[e].fiber->coords.size());
        for (std::size_t level = 1; level <= rounds; level++) {
            for (std::size_t e = 0; e < row.size(); e++)
                left[e] -= charges[e * (rounds + 1) + level];
            for (std::size_t e = 0, next; e < row.size(); e = next) {
                const std::size_t node = row[e].partial >> level;
                std::int64_t length = 0;
                for (next = e; next < row.size() &&
                               row[next].partial >> level == node;
                        next++)
                    length += left[next];
                const std::size_t pair = tree.pairOf(level, node);
                if (pair == kNone)
                    continue;
                out.elements[pair] += length;
                if (keep_rows)
                    rows.emplace_back(pair, length);
            }
        }
    });
    if (keep_rows) {
        // Stable counting sort by pair keeps each pair's rows in order.
        out.rowPtr.assign(tree.pairs() + 1, 0);
        for (const auto &entry : rows)
            out.rowPtr[entry.first + 1]++;
        for (std::size_t q = 0; q < tree.pairs(); q++)
            out.rowPtr[q + 1] += out.rowPtr[q];
        std::vector<std::size_t> at(out.rowPtr.begin(),
                                    out.rowPtr.end() - 1);
        out.lengths.resize(rows.size());
        for (const auto &[pair, length] : rows)
            out.lengths[at[pair]++] = length;
    }
    return out;
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
 * The cycles pair q costs. A row-partitioned merger hands each row to
 * the least-loaded lane in arrival order (the hardware cannot sort by
 * length ahead of time); each lane emits one element per cycle plus a
 * startup bubble per fiber. The lanes are a min-heap, `lanes` its
 * scratch. When several lanes tie for least loaded the heap may pick
 * another one than a scan would, but both add the same load to the
 * same value, so the multiset of loads, and its max, is the same. A
 * flattened merger pops up to `throughput` elements every cycle
 * regardless of row boundaries (Fig 19b).
 */
MergerResult
pairCycles(const MergerConfig &config, MergerKind kind,
           const PairCounts &counts, std::size_t q,
           std::vector<std::int64_t> &lanes)
{
    MergerResult result;
    result.mergedElements = counts.elements[q];
    if (kind == MergerKind::Flattened) {
        result.cycles = (result.mergedElements + config.throughput - 1) /
                        config.throughput;
    } else {
        const std::span<const std::int64_t> rows(
                counts.lengths.data() + counts.rowPtr[q],
                counts.rowPtr[q + 1] - counts.rowPtr[q]);
        lanes.assign(std::size_t(config.lanes), 0);
        const std::size_t n = lanes.size();
        for (const std::int64_t length : rows) {
            // Load the lightest lane, then sift it down.
            const std::int64_t load = lanes[0] + length + config.laneStartup;
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
    const std::array<const sparse::PartialMatrix *, 2> pair{&a, &b};
    const Schedule tree(2);
    const PairCounts counts =
            countPairs(tree, pair, kind == MergerKind::RowPartitioned);
    if (counts.defect.step == 0)
        counts.defect.raise("merged pair");
    std::vector<std::int64_t> lanes;
    return pairCycles(config, kind, counts, 0, lanes);
}

std::vector<const sparse::PartialMatrix *>
pointersTo(const std::vector<sparse::PartialMatrix> &partials)
{
    std::vector<const sparse::PartialMatrix *> out;
    out.reserve(partials.size());
    for (const auto &partial : partials)
        out.push_back(&partial);
    return out;
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
    if (partials.size() < 2)
        return total;
    // SpArch's execution order: merge neighbouring partial matrices
    // pairwise, round after round, until one remains.
    const Schedule tree(partials.size());
    const PairCounts counts = countPairs(tree, pointersTo(partials),
                                         kind == MergerKind::RowPartitioned);
    std::vector<std::int64_t> lanes;
    util::WatchdogBatcher dog; // one step per merged pair, batched
    for (std::size_t level = 1; level <= tree.rounds(); level++) {
        const std::size_t count = tree.count[level - 1];
        for (std::size_t j = 0; 2 * j + 1 < count; j++) {
            auto pair = [&]() {
                return "merge round with " + std::to_string(count) +
                       " partial matrices, pair at " + std::to_string(2 * j);
            };
            if (util::fault::armed())
                util::fault::checkpoint("sim.merger.pair");
            dog.step([&]() {
                return pair() + ", " +
                       std::to_string(total.mergedElements) +
                       " elements merged so far";
            });
            const std::size_t q = tree.pairOf(level, j);
            if (counts.defect.step == q)
                counts.defect.raise(pair());
            MergerResult cost = pairCycles(config, kind, counts, q, lanes);
            total.cycles += cost.cycles;
            total.mergedElements += cost.mergedElements;
        }
    }
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
    const std::size_t group = std::size_t(ways);

    // Each group of `ways` partials merges into one: its elements less
    // one per coordinate two of its partials share in a row. The group
    // merges its partials in order, so a partial raises its own first
    // descent, and an unsorted fiber raises at its own partial when an
    // earlier one of the group holds its row, else at the next that
    // does.
    std::vector<std::int64_t> elements((partials.size() + group - 1) /
                                       group);
    Defect defect;
    for (std::size_t p = 0; p < partials.size(); p++) {
        const sparse::PartialMatrix &m = partials[p];
        for (std::size_t f = 0; f < m.rowIds.size(); f++)
            elements[p / group] += m.rowFibers[f].size();
        defect.keep(descentOf(m, p));
    }
    const std::vector<Holding> holdings = transpose(pointersTo(partials));
    RowWalker walker;
    forEachRow(holdings, [&](std::span<const Holding> row) {
        walker.walk(
                row,
                [&](std::size_t e, std::size_t prev) {
                    if (prev / group == row[e].partial / group)
                        elements[prev / group]--;
                },
                [&](std::size_t e, std::size_t before, std::size_t after) {
                    const std::size_t p = row[e].partial;
                    if (before != kNone && before / group == p / group)
                        defect.keep({p, row[e].row, false, 0});
                    else if (after != kNone && after / group == p / group)
                        defect.keep({after, row[e].row, false, 0});
                });
    });

    util::WatchdogBatcher dog; // one step per merge-tree group
    for (std::size_t g = 0; g < elements.size(); g++) {
        const std::size_t group_start = g * group;
        if (util::fault::armed())
            util::fault::checkpoint("sim.merger.group");
        dog.step([&]() {
            return "hierarchical merge group at " +
                   std::to_string(group_start) + "/" +
                   std::to_string(partials.size());
        });
        if (defect.step < group_start + group)
            defect.raise("hierarchical merge group at " +
                         std::to_string(group_start) + ", partial " +
                         std::to_string(defect.step));
        // The group flows through the pipelined tree: output elements
        // emerge at the flattened throughput once the tree fills.
        total.mergedElements += elements[g];
        total.cycles += (elements[g] + config.throughput - 1) /
                        config.throughput +
                        levels; // pipeline fill
    }
    return total;
}

} // namespace stellar::sim
