#include "dataflow/enumerate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace stellar::dataflow
{

namespace
{

/** Feasible codes in the first scan chunk and the cap the chunks
 *  double up to (chunkStart). */
constexpr std::int64_t kFirstChunkCodes = 256;
constexpr std::int64_t kMaxChunkCodes = 2048;

int
checkedIndices(const func::FunctionalSpec &spec)
{
    int n = spec.numIndices();
    require(n >= 1 && n <= 4,
            "transform enumeration supports 1 to 4 iterators");
    return n;
}

/** Hard cap on the streaming scan (keeps code arithmetic in int64). */
constexpr std::int64_t kMaxStreamCodes = 2000000000;

/**
 * Derived scan geometry. A code is the mixed-radix encoding of the
 * matrix cells (row 0 least significant, the time row most
 * significant), so each row occupies one base-`rowBlock` digit:
 *
 *   code = t * B^m + sum_r s[r] * B^r,  B = range^n, m = n - 1,
 *
 * with s[r] the spatial-row blocks and t the time-row block. The orbit
 * group (negate/permute spatial rows) acts purely on the multiset
 * {s[r]}: negating a row maps its block b -> (B-1) - b when the
 * coefficient range is symmetric, permuting rows permutes blocks. The
 * orbit's minimal code therefore has every spatial block <= `cap` and
 * the blocks non-increasing from row 0 up (smallest values at the
 * largest weights) — which is a test on raw coefficient structure, no
 * decode needed, and lets the scan jump whole non-canonical regions.
 */
struct Geometry
{
    int n = 0;
    std::int64_t minCoeff = 0;
    std::int64_t range = 0;
    std::int64_t total = 0;    //!< range^(n^2)
    std::int64_t rowBlock = 0; //!< range^n (one row's digit base)
    int spatialRows = 0;       //!< n - 1
    bool canonical = false;    //!< orbit skipping active
    std::int64_t cap = 0;      //!< max canonical spatial block value
};

Geometry
geometryFor(int n, const EnumerateOptions &options)
{
    Geometry g;
    g.n = n;
    g.minCoeff = options.minCoeff;
    require(options.minCoeff < options.maxCoeff,
            "coefficient range must span at least two values");
    // Overflow-safe span: real span fits in uint64 whenever min < max.
    std::uint64_t span = std::uint64_t(options.maxCoeff) -
                         std::uint64_t(options.minCoeff);
    if (span >= std::uint64_t(kMaxStreamCodes)) {
        fatal("transform enumeration space too large; narrow the "
              "coefficient range");
    }
    g.range = std::int64_t(span) + 1;

    std::int64_t cells = std::int64_t(n) * n;
    g.total = 1;
    for (std::int64_t c = 0; c < cells; c++) {
        if (g.total > kMaxStreamCodes / g.range) {
            fatal("transform enumeration space too large; narrow the "
                  "coefficient range");
        }
        g.total *= g.range;
    }
    g.rowBlock = 1;
    for (int r = 0; r < n; r++)
        g.rowBlock *= g.range;

    g.spatialRows = n - 1;
    bool symmetric = options.minCoeff == -options.maxCoeff;
    // Sign flips need a symmetric range; permutations need >= 2 spatial
    // rows. With neither, every code is its own orbit.
    g.canonical = options.orbitCanonical && g.spatialRows >= 1 &&
                  (symmetric || g.spatialRows >= 2);
    g.cap = (g.canonical && symmetric) ? (g.rowBlock - 1) / 2
                                       : g.rowBlock - 1;
    return g;
}

/** Split `code` into its spatial digit blocks `w` (most significant
 *  first, w[0] = row m-1's block) and return its time-row block. */
std::int64_t
splitCode(const Geometry &g, std::int64_t code,
          std::array<std::int64_t, 4> &w)
{
    const int m = g.spatialRows;
    for (int r = 0; r < m; r++) {
        w[std::size_t(m - 1 - r)] = code % g.rowBlock;
        code /= g.rowBlock;
    }
    return code;
}

/** Exact binomial coefficient for the small `k` (<= 4) of the closed
 *  forms below; every partial product divides exactly. */
std::int64_t
binomial(std::int64_t n, std::int64_t k)
{
    if (k < 0 || n < k)
        return 0;
    std::int64_t out = 1;
    for (std::int64_t i = 1; i <= k; i++)
        out = out * (n - k + i) / i;
    return out;
}

/**
 * The number of orbit-canonical codes in [0, code), in closed form. A
 * time block holds binomial(cap + m, m) canonical spatial tuples (the
 * non-decreasing m-tuples over [0, cap]); within the block, count the
 * canonical tuples lexicographically below `code`'s digit by digit.
 * With r digits left after position i, the tuples that put u at i number
 * binomial(cap - u + r, r), and a hockey-stick sum closes each digit's
 * run of u values.
 */
std::int64_t
canonicalBelow(const Geometry &g, std::int64_t code)
{
    if (!g.canonical)
        return code;
    const int m = g.spatialRows;
    std::array<std::int64_t, 4> w{};
    std::int64_t count = splitCode(g, code, w) * binomial(g.cap + m, m);
    // tuplesFrom(r, a) = tuples with a value >= a at the current digit
    // and r digits after it = sum_{u=a}^{cap} binomial(cap - u + r, r).
    auto tuplesFrom = [&](std::int64_t r, std::int64_t a) {
        return binomial(g.cap - a + r + 1, r + 1);
    };
    std::int64_t floor_v = 0;
    for (int i = 0; i < m; i++) {
        const std::int64_t v = w[std::size_t(i)];
        const std::int64_t r = m - 1 - i;
        const std::int64_t upper = std::min(v, g.cap + 1);
        if (upper > floor_v)
            count += tuplesFrom(r, floor_v) - tuplesFrom(r, upper);
        if (v < floor_v || v > g.cap)
            break; // no canonical tuple shares this prefix
        floor_v = v;
    }
    return count;
}

/** The hop table holds one entry per spatial block value and
 *  recurrence. The code-space cap keeps the block of every spec with a
 *  spatial row far below this (range^n <= sqrt(2e9) for n >= 2). */
constexpr std::int64_t kMaxTabulatedBlock = std::int64_t(1) << 16;

/**
 * The causality and hop filters split over digit blocks. Causality
 * (dt_k = t . diff_k >= 0, or > 0 without broadcast) reads the time row
 * alone, and the hop count sum_r |s_r . diff_k| adds one term per
 * spatial row, so both are decided block by block without decoding:
 * `causal` tests one time row and `hops` holds every block's
 * per-recurrence hop cost.
 */
struct RowTables
{
    std::vector<IntVec> diffs; //!< one per recurrence
    bool allowBroadcast = true;
    std::vector<std::int64_t> hops; //!< hops[b * recs + k]
    /** With one iterator a time row is one coefficient c, and each
     *  recurrence bounds c on one side (c * d >= 0), so the causal rows
     *  are the interval [causalFirst, causalEnd). */
    std::int64_t causalFirst = 0;
    std::int64_t causalEnd = 0;

    RowTables(const Geometry &g,
              const std::vector<func::Recurrence> &recurrences,
              const EnumerateOptions &options);

    std::size_t recs() const { return diffs.size(); }

    std::int64_t rowDot(const Geometry &g, std::int64_t block,
                        const IntVec &diff) const
    {
        std::int64_t v = 0;
        for (int c = 0; c < g.n; c++) {
            v += (g.minCoeff + block % g.range) * diff[std::size_t(c)];
            block /= g.range;
        }
        return v;
    }

    bool causal(const Geometry &g, std::int64_t t) const
    {
        for (const auto &diff : diffs) {
            std::int64_t dt = rowDot(g, t, diff);
            if (dt < 0 || (dt == 0 && !allowBroadcast))
                return false;
        }
        return true;
    }
};

RowTables::RowTables(const Geometry &g,
                     const std::vector<func::Recurrence> &recurrences,
                     const EnumerateOptions &options)
    : allowBroadcast(options.allowBroadcast)
{
    for (const auto &rec : recurrences)
        diffs.push_back(rec.diff);
    const std::int64_t B = g.rowBlock;
    if (g.spatialRows == 0) {
        std::int64_t lo = g.minCoeff;
        std::int64_t hi = g.minCoeff + g.range - 1;
        const std::int64_t strict = allowBroadcast ? 0 : 1;
        for (const auto &diff : diffs) {
            if (diff[0] > 0)
                lo = std::max(lo, strict);
            else if (diff[0] < 0)
                hi = std::min(hi, -strict);
            else if (!allowBroadcast)
                hi = lo - 1;
        }
        causalFirst = lo - g.minCoeff;
        causalEnd = std::max(causalFirst, hi - g.minCoeff + 1);
        return;
    }
    require(B <= kMaxTabulatedBlock, "spatial digit block too large");
    for (std::int64_t b = 0; b < B; b++)
        for (const auto &diff : diffs)
            hops.push_back(std::llabs(rowDot(g, b, diff)));
}

/**
 * Append the in-row offset of every spatial tuple w[i..m) that is
 * canonical (each digit in [floor, cap], non-decreasing when orbit
 * skipping is on) and whose per-recurrence hop costs fit the budgets,
 * in increasing order; `prefix` is the offset of w[0..i). `budgets`
 * holds (m + 1) rows of per-recurrence budgets, the first set by the
 * caller.
 */
void
collectSpatial(const Geometry &g, const RowTables &rows,
               std::int64_t *budgets, int i, std::int64_t floor_v,
               std::int64_t prefix, std::vector<std::int64_t> &out)
{
    const std::size_t recs = rows.recs();
    const std::int64_t *budget = budgets + std::size_t(i) * recs;
    if (i == g.spatialRows) {
        // Without spatial rows every hop count is 0: the tuple fits
        // unless the limit itself is negative.
        if (std::all_of(budget, budget + recs,
                        [](std::int64_t left) { return left >= 0; }))
            out.push_back(prefix);
        return;
    }
    std::int64_t *left = budgets + std::size_t(i + 1) * recs;
    for (std::int64_t v = floor_v; v <= g.cap; v++) {
        const std::int64_t *cost = rows.hops.data() + std::size_t(v) * recs;
        bool fits = true;
        for (std::size_t k = 0; k < recs && fits; k++) {
            left[k] = budget[k] - cost[k];
            fits = left[k] >= 0;
        }
        if (fits)
            collectSpatial(g, rows, budgets, i + 1, g.canonical ? v : 0,
                           prefix * g.rowBlock + v, out);
    }
}

/**
 * The feasible codes (orbit-canonical, causal and within the hop limit:
 * exactly the codes the scan decodes), counted, indexed and walked in
 * closed form. Causality reads only the time row and the hop cost only
 * the spatial blocks, so every causal time row holds the same
 * S = tuples.size() feasible in-row offsets, and for
 * code = t * rowSpan + w
 *
 *   feasibleBelow(code) = causalBelow(t) * S + [t causal] * #{tuples < w}.
 *
 * The causal rows are kept as maximal runs: one iterator has a row per
 * code and its causal rows form one run (RowTables::causalFirst), so no
 * table grows with the code space.
 */
struct FeasibleIndex
{
    struct Run
    {
        std::int64_t first = 0;  //!< first causal row of the run
        std::int64_t end = 0;    //!< first row after it
        std::int64_t before = 0; //!< causal rows in earlier runs
    };
    using RunIt = std::vector<Run>::const_iterator;

    std::int64_t total = 0;
    std::int64_t rowSpan = 1;
    std::vector<std::int64_t> tuples; //!< feasible in-row offsets, sorted
    std::vector<Run> runs;
    std::int64_t causalRows = 0;
    std::int64_t count = 0; //!< F, the feasible codes of the whole space

    FeasibleIndex(const Geometry &g, const RowTables &rows,
                  std::int64_t max_hop)
        : total(g.total), rowSpan(g.total / g.rowBlock)
    {
        std::vector<std::int64_t> budgets(
                std::size_t(g.spatialRows + 1) * rows.recs(), max_hop);
        collectSpatial(g, rows, budgets.data(), 0, 0, 0, tuples);
        if (g.spatialRows == 0) {
            if (rows.causalFirst < rows.causalEnd)
                runs.push_back({rows.causalFirst, rows.causalEnd, 0});
            causalRows = rows.causalEnd - rows.causalFirst;
        } else {
            for (std::int64_t t = 0; t < g.rowBlock; t++) {
                if (!rows.causal(g, t))
                    continue;
                if (!runs.empty() && runs.back().end == t)
                    runs.back().end++;
                else
                    runs.push_back({t, t + 1, causalRows});
                causalRows++;
            }
        }
        count = causalRows * std::int64_t(tuples.size());
    }

    /** Causal time rows in [0, t). */
    std::int64_t causalBelow(std::int64_t t) const
    {
        auto run = std::upper_bound(
                runs.begin(), runs.end(), t,
                [](std::int64_t row, const Run &r) { return row < r.end; });
        if (run == runs.end())
            return causalRows;
        return run->before + std::max<std::int64_t>(0, t - run->first);
    }

    /** Feasible codes in [0, code). */
    std::int64_t below(std::int64_t code) const
    {
        const std::int64_t t = code / rowSpan;
        const std::int64_t rows_below = causalBelow(t);
        std::int64_t out = rows_below * std::int64_t(tuples.size());
        if (causalBelow(t + 1) != rows_below)
            out += std::lower_bound(tuples.begin(), tuples.end(),
                                    code % rowSpan) -
                   tuples.begin();
        return out;
    }

    /** The run and time row holding the k-th feasible code (k < count). */
    std::pair<RunIt, std::int64_t> rowOf(std::int64_t k) const
    {
        const std::int64_t row = k / std::int64_t(tuples.size());
        auto run = std::upper_bound(
                runs.begin(), runs.end(), row,
                [](std::int64_t r, const Run &x) { return r < x.before; });
        --run;
        return {run, run->first + row - run->before};
    }

    /** The k-th feasible code (0-based), or `total` when k == count. */
    std::int64_t codeAt(std::int64_t k) const
    {
        if (k >= count)
            return total;
        return rowOf(k).second * rowSpan +
               tuples[std::size_t(k % std::int64_t(tuples.size()))];
    }

    /** Call visit(code) for the feasible codes of ranks [first, end) in
     *  increasing order: the runs' rows times the sorted tuples. */
    template <typename Visit>
    void forEach(std::int64_t first, std::int64_t end, Visit &&visit) const
    {
        if (first >= end)
            return;
        auto [run, t] = rowOf(first);
        std::size_t j = std::size_t(first % std::int64_t(tuples.size()));
        for (std::int64_t k = first; k < end; k++) {
            visit(t * rowSpan + tuples[j]);
            if (++j < tuples.size())
                continue;
            j = 0;
            if (++t == run->end && ++run != runs.end())
                t = run->first;
        }
    }

    /** Where shard `index` of `count` begins: code 0 for the first
     *  shard, else the (F * index / count)-th feasible code. */
    std::int64_t cut(std::int64_t index, std::int64_t shards) const
    {
        if (index == 0)
            return 0;
        return codeAt(std::int64_t(static_cast<__int128>(count) * index /
                                   shards));
    }
};

/**
 * Per-worker decode scratch. Decodes into a flat cell array, takes its
 * determinant without allocating (rowMajorDeterminant, n <= 4), and
 * builds signatures into reused buffers, so a decode never allocates.
 */
struct Scanner
{
    const Geometry &g;
    const std::vector<func::Recurrence> &recurrences;
    const EnumerateOptions &options;
    std::array<std::int64_t, 16> cells{};
    std::vector<IntVec> columns;       //!< per-spatial-axis |st|, reused
    std::vector<std::int64_t> times;   //!< per-recurrence dt, reused
    std::vector<std::int64_t> signature;

    Scanner(const Geometry &geometry,
            const std::vector<func::Recurrence> &recs,
            const EnumerateOptions &opts)
        : g(geometry), recurrences(recs), options(opts)
    {
        columns.assign(std::size_t(g.n - 1 > 0 ? g.n - 1 : 0),
                       IntVec(recs.size(), 0));
        times.assign(recs.size(), 0);
    }

    std::span<const std::int64_t> cellSpan() const
    {
        return {cells.data(), std::size_t(g.n * g.n)};
    }

    /** Decode + filter `code`; true when it survives (signature set). */
    bool decode(std::int64_t code)
    {
        const int n = g.n;
        std::int64_t rest = code;
        for (int cell = 0; cell < n * n; cell++) {
            cells[std::size_t(cell)] = g.minCoeff + rest % g.range;
            rest /= g.range;
        }
        if (rowMajorDeterminant(cells.data(), n) == 0)
            return false;

        const std::size_t recs = recurrences.size();
        for (std::size_t k = 0; k < recs; k++) {
            const auto &diff = recurrences[k].diff;
            std::int64_t dt = 0;
            std::int64_t hops = 0;
            for (int r = 0; r < n; r++) {
                const std::int64_t *row =
                        cells.data() + std::size_t(r) * std::size_t(n);
                std::int64_t v = 0;
                for (int c = 0; c < n; c++)
                    v += row[c] * diff[std::size_t(c)];
                if (r == n - 1) {
                    dt = v;
                } else {
                    std::int64_t av = v < 0 ? -v : v;
                    columns[std::size_t(r)][k] = av;
                    hops += av;
                }
            }
            if (dt < 0 || (dt == 0 && !options.allowBroadcast))
                return false;
            if (hops > options.maxHopLength)
                return false;
            times[k] = dt;
        }

        signature.clear();
        if (recs != 0) {
            std::sort(columns.begin(), columns.end());
            for (const auto &column : columns)
                signature.insert(signature.end(), column.begin(),
                                 column.end());
            signature.insert(signature.end(), times.begin(), times.end());
        }
        return true;
    }

    IntMatrix materialize() const
    {
        IntMatrix m(g.n, g.n);
        for (int r = 0; r < g.n; r++)
            for (int c = 0; c < g.n; c++)
                m.at(r, c) = cells[std::size_t(r) * std::size_t(g.n) +
                                   std::size_t(c)];
        return m;
    }
};

/** One scan worker's state, borrowed for one chunk at a time. */
struct Worker
{
    Scanner scanner;
    std::unique_ptr<SurvivorScorer> scorer;
    detail::SignatureSet local; //!< the chunk's signatures, in order
};

/** A slice of the scan: the codes [lo, hi), which hold the feasible
 *  codes of ranks [first, end). */
struct Chunk
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t first = 0;
    std::int64_t end = 0;
};

/**
 * Feasible codes in the chunks before chunk `i`, a fixed schedule: a
 * small first chunk so a tiny `limit` stops after near-serial work,
 * then doubling to a cap that keeps the in-flight survivors few. A
 * chunk's work is in proportion to its feasible codes.
 */
std::int64_t
chunkStart(std::size_t i)
{
    std::int64_t start = 0;
    std::int64_t size = kFirstChunkCodes;
    for (; i > 0 && size < kMaxChunkCodes; i--, size *= 2)
        start += size;
    return start + std::int64_t(i) * size;
}

/**
 * Chunk `i` of the scan of `whole` (none past the last): ranks
 * whole.first + [chunkStart(i), chunkStart(i + 1)). The first chunk
 * starts at whole.lo, the last ends at whole.hi and every edge between
 * is a feasible code, so the chunks tile `whole`.
 */
std::optional<Chunk>
chunkOf(const FeasibleIndex &index, const Chunk &whole, std::size_t i)
{
    const std::int64_t first = whole.first + chunkStart(i);
    if (i > 0 && first >= whole.end)
        return std::nullopt;
    const std::int64_t end =
            std::min(whole.end, whole.first + chunkStart(i + 1));
    return Chunk{i == 0 ? whole.lo : index.codeAt(first),
                 end == whole.end ? whole.hi : index.codeAt(end), first,
                 end};
}

/** Add `from`'s `*After` counters to `to`'s. */
void
accumulate(Survivor &to, const Survivor &from)
{
    to.examinedAfter += from.examinedAfter;
    to.decodedAfter += from.decodedAfter;
    to.rejectedAfter += from.rejectedAfter;
    to.duplicatesAfter += from.duplicatesAfter;
}

struct ChunkResult
{
    Survivor totals; //!< the chunk's counts, in `*After` form
    /** Chunk-local survivors: `*After` relative to the chunk, no index. */
    std::vector<Survivor> survivors;
    std::vector<std::int64_t> signatures; //!< back to back, in order
};

/**
 * Decode the feasible codes of `chunk` straight off the index, dedup
 * them locally by signature (keeping the first code of each — exactly
 * what the global in-order merge keeps), and score each local survivor
 * from its cells when the worker has a scorer.
 */
ChunkResult
scanChunk(Worker &worker, const FeasibleIndex &index, const Chunk &chunk)
{
    ChunkResult res;
    Survivor &totals = res.totals;
    totals.examinedAfter = chunk.hi - chunk.lo;
    Scanner &scanner = worker.scanner;
    worker.local.clear();
    index.forEach(chunk.first, chunk.end, [&](std::int64_t code) {
        totals.decodedAfter++;
        if (!scanner.decode(code)) {
            totals.rejectedAfter++;
            return;
        }
        if (!worker.local.insert(scanner.signature).second) {
            totals.duplicatesAfter++;
            return;
        }
        Survivor &s = res.survivors.emplace_back(totals);
        s.code = code;
        s.examinedAfter = code - chunk.lo + 1;
        if (worker.scorer)
            s.verdict = worker.scorer->score(scanner.cellSpan());
    });
    res.signatures = worker.local.values();
    return res;
}

/** What every decode under one (spec, options) pair shares. */
struct ScanContext
{
    EnumerateOptions options;
    Geometry g;
    std::vector<func::Recurrence> recurrences;
    RowTables rows;
    Scanner scanner; //!< decode scratch; references the above
    std::optional<FeasibleIndex> feasible; //!< built on first use

    ScanContext(const func::FunctionalSpec &spec,
                const EnumerateOptions &opts)
        : options(opts),
          g(geometryFor(checkedIndices(spec), opts)),
          recurrences(spec.recurrences()),
          rows(g, recurrences, options),
          scanner(g, recurrences, options)
    {
    }

    /** The length of every survivor's signature: a |st| column per
     *  spatial axis and a dt, each with one entry per recurrence. */
    std::size_t signatureWidth() const
    {
        return std::size_t(g.n) * recurrences.size();
    }

    const FeasibleIndex &feasibleIndex()
    {
        if (!feasible)
            feasible.emplace(g, rows, options.maxHopLength);
        return *feasible;
    }

    /**
     * The one split rule: shard `index` of `count` owns
     * [cut(index), cut(index + 1)), with cut(0) = 0, cut(count) = total
     * and cut(i) the (F * i / count)-th feasible code in between, so
     * the slices tile the space and each decodes F / count codes to
     * within one.
     */
    std::pair<std::int64_t, std::int64_t> shardRange(std::int64_t index,
                                                     std::int64_t count)
    {
        require(count >= 1 && index >= 0 && index < count,
                "enumeration shard index out of range");
        const FeasibleIndex &feasible_codes = feasibleIndex();
        return {feasible_codes.cut(index, count),
                feasible_codes.cut(index + 1, count)};
    }

    /** The named transform of a surviving code. */
    SpaceTimeTransform transform(std::int64_t code, std::size_t index)
    {
        if (!scanner.decode(code))
            fatal("code " + std::to_string(code) +
                  " does not decode to a survivor");
        return SpaceTimeTransform(scanner.materialize(),
                                  "enumerated-" + std::to_string(index));
    }

    /** The whole space unsharded, else the shard's slice. */
    Chunk scope()
    {
        std::pair<std::int64_t, std::int64_t> range(0, g.total);
        if (options.shardCount > 0)
            range = shardRange(options.shardIndex, options.shardCount);
        const FeasibleIndex &index = feasibleIndex();
        return {range.first, range.second, index.below(range.first),
                index.below(range.second)};
    }
};

} // namespace

struct SurvivorStream::Impl : ScanContext
{
    const SurvivorScorer *scorer = nullptr;
    Chunk whole; //!< the range the stream covers
    std::size_t nextToIssue = 0;
    std::size_t window = 0;

    ChunkResult current;
    std::size_t cursor = 0;
    bool haveCurrent = false;
    bool done = false;

    detail::SignatureSet signatures;
    std::size_t width = 0; //!< signature length
    // The `*After` counters of `prior` total the fully consumed chunks,
    // merge-level duplicates included; `last` is the last yield, where
    // a `limit` or stop() finalizes.
    Survivor prior;
    Survivor last;
    EnumerateStats stats;

    // Idle workers: a chunk borrows one (or builds one, cloning the
    // scorer on its own thread) and returns it.
    std::mutex idleMutex;
    std::vector<std::unique_ptr<Worker>> idle;

    std::deque<std::future<ChunkResult>> inflight;
    // Declared last: destroyed first, so worker tasks referencing the
    // members above are joined/discarded before those members die.
    std::unique_ptr<util::ThreadPool> pool;

    Impl(const func::FunctionalSpec &spec, const EnumerateOptions &opts,
         const SurvivorScorer *survivor_scorer)
        : ScanContext(spec, opts), scorer(survivor_scorer), whole(scope())
    {
        stats.codesTotal = g.total;
        width = signatureWidth();
        std::size_t threads = options.threads;
        if (threads == 0)
            threads = std::max<std::size_t>(
                    1, std::thread::hardware_concurrency());
        if (threads > 1 && chunkOf(*feasible, whole, 1)) {
            window = threads * 2 + 2;
            pool = std::make_unique<util::ThreadPool>(threads);
        }
    }

    ChunkResult scan(const Chunk &chunk)
    {
        std::unique_ptr<Worker> worker;
        {
            std::lock_guard<std::mutex> lock(idleMutex);
            if (!idle.empty()) {
                worker = std::move(idle.back());
                idle.pop_back();
            }
        }
        if (!worker)
            worker.reset(new Worker{Scanner(g, recurrences, options),
                                    scorer ? scorer->clone() : nullptr,
                                    {}});
        ChunkResult res = scanChunk(*worker, *feasible, chunk);
        std::lock_guard<std::mutex> lock(idleMutex);
        idle.push_back(std::move(worker));
        return res;
    }

    /** Submit chunks until the window is full or none are left. */
    void issueChunks()
    {
        while (inflight.size() < window) {
            auto chunk = chunkOf(*feasible, whole, nextToIssue);
            if (!chunk)
                return;
            nextToIssue++;
            inflight.push_back(
                    pool->submit([this, c = *chunk]() { return scan(c); }));
        }
    }

    bool fetchNextChunk()
    {
        if (pool) {
            issueChunks();
            if (inflight.empty())
                return false;
            current = inflight.front().get();
            inflight.pop_front();
            issueChunks();
        } else {
            auto chunk = chunkOf(*feasible, whole, nextToIssue);
            if (!chunk)
                return false;
            nextToIssue++;
            current = scan(*chunk);
        }
        cursor = 0;
        haveCurrent = true;
        return true;
    }

    /** Fill the counters for a scan whose accounting ends at `through`;
     *  the two skip counts follow in closed form. */
    void finalize(const Survivor &through)
    {
        const std::int64_t examined = through.examinedAfter;
        const std::int64_t canonical =
                canonicalBelow(g, whole.lo + examined) -
                canonicalBelow(g, whole.lo);
        stats.codesExamined = examined;
        stats.orbitSkipped = examined - canonical;
        stats.feasibilitySkipped = canonical - through.decodedAfter;
        stats.decoded = through.decodedAfter;
        stats.rejected = through.rejectedAfter;
        stats.duplicates = through.duplicatesAfter;
        done = true;
    }

    bool next(Survivor &out)
    {
        if (done)
            return false;
        for (;;) {
            while (haveCurrent && cursor < current.survivors.size()) {
                const Survivor &s = current.survivors[cursor];
                const std::int64_t *signature =
                        current.signatures.data() + cursor * width;
                cursor++;
                if (!signatures.insert({signature, width}).second) {
                    prior.duplicatesAfter++;
                    continue;
                }
                out = s;
                out.index = std::size_t(stats.yielded++);
                accumulate(out, prior);
                last = out;
                if (std::uint64_t(stats.yielded) >=
                    std::uint64_t(options.limit))
                    finalize(last);
                return true;
            }
            if (haveCurrent) {
                accumulate(prior, current.totals);
                haveCurrent = false;
            }
            if (!fetchNextChunk()) {
                finalize(prior);
                return false;
            }
        }
    }

    void stop()
    {
        if (!done)
            finalize(last);
    }
};

SurvivorStream::SurvivorStream(const func::FunctionalSpec &spec,
                               const EnumerateOptions &options,
                               const SurvivorScorer *scorer)
    : impl_(std::make_unique<Impl>(spec, options, scorer))
{
}

SurvivorStream::~SurvivorStream() = default;

bool
SurvivorStream::next(Survivor &out)
{
    return impl_->next(out);
}

void
SurvivorStream::stop()
{
    impl_->stop();
}

const EnumerateStats &
SurvivorStream::stats() const
{
    return impl_->stats;
}

std::pair<std::int64_t, std::int64_t>
SurvivorStream::range() const
{
    return {impl_->whole.lo, impl_->whole.hi};
}

bool
SurvivorStream::next(EnumeratedTransform &out)
{
    if (!impl_->next(out))
        return false;
    out.transform = impl_->transform(out.code, out.index);
    out.signature = impl_->scanner.signature;
    return true;
}

void
forEachTransform(const func::FunctionalSpec &spec,
                 const EnumerateOptions &options, const TransformSink &sink,
                 EnumerateStats *stats)
{
    TransformStream stream(spec, options);
    EnumeratedTransform item;
    while (stream.next(item)) {
        if (!sink(item)) {
            stream.stop();
            break;
        }
    }
    if (stats)
        *stats = stream.stats();
}

namespace detail
{

struct CandidateDecoder::Impl : ScanContext
{
    using ScanContext::ScanContext;
};

CandidateDecoder::CandidateDecoder(const func::FunctionalSpec &spec,
                                   const EnumerateOptions &options)
    : impl_(std::make_unique<Impl>(spec, options))
{
}

CandidateDecoder::~CandidateDecoder() = default;

std::int64_t
CandidateDecoder::codesTotal() const
{
    return impl_->g.total;
}

bool
CandidateDecoder::canonical(std::int64_t code) const
{
    return canonicalBelow(code + 1) != canonicalBelow(code);
}

std::int64_t
CandidateDecoder::canonicalBelow(std::int64_t code) const
{
    return dataflow::canonicalBelow(impl_->g, code);
}

std::int64_t
CandidateDecoder::feasibleBelow(std::int64_t code)
{
    return impl_->feasibleIndex().below(code);
}

std::pair<std::int64_t, std::int64_t>
CandidateDecoder::shardRange(std::int64_t index, std::int64_t count)
{
    return impl_->shardRange(index, count);
}

std::optional<std::pair<std::int64_t, std::int64_t>>
CandidateDecoder::chunk(std::size_t i)
{
    auto out = chunkOf(impl_->feasibleIndex(), impl_->scope(), i);
    if (!out)
        return std::nullopt;
    return std::pair(out->lo, out->hi);
}

bool
CandidateDecoder::decode(std::int64_t code)
{
    return impl_->scanner.decode(code);
}

SpaceTimeTransform
CandidateDecoder::transform(std::int64_t code, std::size_t index)
{
    return impl_->transform(code, index);
}

std::span<const std::int64_t>
CandidateDecoder::cells() const
{
    return impl_->scanner.cellSpan();
}

const std::vector<std::int64_t> &
CandidateDecoder::signature() const
{
    return impl_->scanner.signature;
}

std::size_t
CandidateDecoder::signatureWidth() const
{
    return impl_->signatureWidth();
}

std::uint64_t
SignatureSet::hash(std::span<const std::int64_t> signature)
{
    std::uint64_t h = 0xcbf29ce484222325ull ^ signature.size();
    for (std::int64_t value : signature) {
        h ^= std::uint64_t(value);
        h *= 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    }
    return h;
}

void
SignatureSet::rehash(std::size_t slots)
{
    slots_.assign(slots, 0);
    for (std::size_t e = 0; e < size_; e++) {
        std::size_t s = std::size_t(hash({values_.data() + e * width_,
                                          width_})) &
                        (slots - 1);
        while (slots_[s] != 0)
            s = (s + 1) & (slots - 1);
        slots_[s] = std::uint32_t(e + 1);
    }
}

void
SignatureSet::reserve(std::size_t entries, std::size_t width)
{
    values_.reserve(entries * width);
    if (2 * (entries + 1) > slots_.size())
        rehash(std::max<std::size_t>(16, std::bit_ceil(2 * (entries + 1))));
}

std::pair<std::size_t, bool>
SignatureSet::insert(std::span<const std::int64_t> signature)
{
    return insert(signature, hash(signature));
}

std::pair<std::size_t, bool>
SignatureSet::insert(std::span<const std::int64_t> signature,
                     std::uint64_t signature_hash)
{
    if (size_ == 0)
        width_ = signature.size();
    // Keep the table at most half full.
    if (2 * (size_ + 1) > slots_.size())
        rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::size_t s = std::size_t(signature_hash) & (slots_.size() - 1);;
         s = (s + 1) & (slots_.size() - 1)) {
        if (slots_[s] == 0) {
            values_.insert(values_.end(), signature.begin(),
                           signature.end());
            slots_[s] = std::uint32_t(++size_);
            return {size_ - 1, true};
        }
        const std::int64_t *entry =
                values_.data() + (slots_[s] - 1) * width_;
        if (std::equal(signature.begin(), signature.end(), entry))
            return {slots_[s] - 1, false};
    }
}

void
SignatureSet::clear()
{
    std::fill(slots_.begin(), slots_.end(), 0);
    values_.clear();
    size_ = 0;
}

} // namespace detail

} // namespace stellar::dataflow
