#include "dataflow/enumerate.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <cstdlib>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace stellar::dataflow
{

namespace
{

/** The scan's signature dedup sets; only membership is ever read. */
using SignatureSet =
        std::unordered_set<std::vector<std::int64_t>, SignatureHash>;

/** Size of the first scan chunk (chunks then grow geometrically). */
constexpr std::int64_t kFirstChunkCodes = 4096;

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
 * `nextCausal` walks over acausal time rows and `hops` holds every
 * block's per-recurrence hop cost.
 */
struct RowTables
{
    std::vector<IntVec> diffs; //!< one per recurrence
    bool allowBroadcast = true;
    std::vector<std::int64_t> hops; //!< hops[b * recs + k]
    std::array<std::int64_t, 4> firstSpatial{}; //!< least feasible tuple
    bool anySpatial = false;
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

    /** The smallest causal time row in [t, end), or `end` when none. */
    std::int64_t nextCausal(const Geometry &g, std::int64_t t,
                            std::int64_t end) const
    {
        if (g.spatialRows == 0) {
            t = std::max(t, causalFirst);
            return t < causalEnd ? std::min(t, end) : end;
        }
        while (t < end && !causal(g, t))
            t++;
        return t;
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

/**
 * The smallest spatial tuple w[i..m) that is canonical (each digit in
 * [floor, cap], non-decreasing when orbit skipping is on) and whose
 * per-recurrence hop costs fit `budgets[i]` — and, when `tight`, is
 * lexicographically >= the tuple already in `w`. Writes it into `w` and
 * returns true, or returns false leaving `w` as it was.
 * `budgets` holds (m + 1) rows of per-recurrence budgets, the first set
 * by the caller; the digits are tried in increasing order, so the first
 * complete tuple is the smallest.
 */
bool
fillSpatial(const Geometry &g, const RowTables &rows,
            std::array<std::int64_t, 4> &w, std::int64_t *budgets, int i,
            bool tight, std::int64_t floor_v)
{
    const int m = g.spatialRows;
    if (i == m)
        return true;
    const std::size_t recs = rows.recs();
    const std::int64_t *budget = budgets + std::size_t(i) * recs;
    std::int64_t *left = budgets + std::size_t(i + 1) * recs;
    // Raising a digit above `w`'s frees every digit after it.
    const std::int64_t original = w[std::size_t(i)];
    for (std::int64_t v = tight ? std::max(original, floor_v) : floor_v;
         v <= g.cap; v++) {
        const std::int64_t *cost = rows.hops.data() + std::size_t(v) * recs;
        bool fits = true;
        for (std::size_t k = 0; k < recs && fits; k++) {
            left[k] = budget[k] - cost[k];
            fits = left[k] >= 0;
        }
        if (!fits)
            continue;
        if (fillSpatial(g, rows, w, budgets, i + 1, tight && v == original,
                        g.canonical ? v : 0)) {
            w[std::size_t(i)] = v;
            return true;
        }
    }
    return false;
}

RowTables::RowTables(const Geometry &g,
                     const std::vector<func::Recurrence> &recurrences,
                     const EnumerateOptions &options)
    : allowBroadcast(options.allowBroadcast)
{
    for (const auto &rec : recurrences)
        diffs.push_back(rec.diff);
    const std::int64_t B = g.rowBlock;
    const int m = g.spatialRows;
    if (m == 0) {
        anySpatial = diffs.empty() || options.maxHopLength >= 0;
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
    std::vector<std::int64_t> budgets(std::size_t(m + 1) * recs(),
                                      options.maxHopLength);
    anySpatial = fillSpatial(g, *this, firstSpatial, budgets.data(), 0,
                             false, 0);
}

/**
 * Append the in-row offset of every spatial tuple w[i..m) that
 * fillSpatial accepts (canonical, within the hop budgets), in increasing
 * order; `prefix` is the offset of w[0..i).
 */
void
collectSpatial(const Geometry &g, const RowTables &rows,
               std::int64_t *budgets, int i, std::int64_t floor_v,
               std::int64_t prefix, std::vector<std::int64_t> &out)
{
    if (i == g.spatialRows) {
        out.push_back(prefix);
        return;
    }
    const std::size_t recs = rows.recs();
    const std::int64_t *budget = budgets + std::size_t(i) * recs;
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
 * exactly the codes the scan decodes), counted and indexed in closed
 * form so shards can be cut at equal feasible counts. Causality reads
 * only the time row and the hop cost only the spatial blocks, so every
 * causal time row holds the same S = tuples.size() feasible in-row
 * offsets, and for code = t * rowSpan + w
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
        if (!rows.anySpatial)
            return;
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

    /** The k-th feasible code (0-based), or `total` when k == count. */
    std::int64_t codeAt(std::int64_t k) const
    {
        if (k >= count)
            return total;
        const std::int64_t per_row = std::int64_t(tuples.size());
        const std::int64_t row = k / per_row;
        auto run = std::upper_bound(
                runs.begin(), runs.end(), row,
                [](std::int64_t r, const Run &x) { return r < x.before; });
        --run;
        return (run->first + row - run->before) * rowSpan +
               tuples[std::size_t(k % per_row)];
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
 * Per-chunk scan scratch. Decodes into a flat cell array, takes its
 * determinant without allocating (rowMajorDeterminant, n <= 4), and
 * builds signatures into reused buffers — the hot loop allocates only
 * for survivors.
 */
struct Scanner
{
    const Geometry &g;
    const std::vector<func::Recurrence> &recurrences;
    const EnumerateOptions &options;
    const RowTables &rows;
    std::array<std::int64_t, 16> cells{};
    std::vector<IntVec> columns;       //!< per-spatial-axis |st|, reused
    std::vector<std::int64_t> times;   //!< per-recurrence dt, reused
    std::vector<std::int64_t> signature;
    std::array<std::int64_t, 4> w{};   //!< nextFeasible's spatial digits
    std::vector<std::int64_t> budgets; //!< nextFeasible's hop budgets
    std::int64_t rowSpan = 1;          //!< codes per time row

    Scanner(const Geometry &geometry,
            const std::vector<func::Recurrence> &recs,
            const EnumerateOptions &opts, const RowTables &tables)
        : g(geometry), recurrences(recs), options(opts), rows(tables)
    {
        columns.assign(std::size_t(g.n - 1 > 0 ? g.n - 1 : 0),
                       IntVec(recs.size(), 0));
        times.assign(recs.size(), 0);
        budgets.assign(std::size_t(g.spatialRows + 1) * recs.size(),
                       opts.maxHopLength);
        rowSpan = g.total / g.rowBlock;
    }

    /**
     * The smallest code in [code, hi) that is orbit-canonical, causal
     * and within the hop limit (`hi` when none is) — exactly the codes
     * the scan decodes. Digits are (t, w[0], ..., w[m-1]), most
     * significant first: keep `code`'s causal time row if the spatial
     * digits can be completed at or above `code`'s, else move to the
     * next causal time row and the least feasible spatial tuple, which
     * is the same in every time row. The walk over acausal time rows
     * stops at the last row that reaches into [code, hi), so a chunk
     * never walks past its own codes.
     */
    std::int64_t nextFeasible(std::int64_t code, std::int64_t hi)
    {
        if (code >= hi || !rows.anySpatial)
            return hi;
        const std::int64_t row_end = (hi - 1) / rowSpan + 1;
        const std::int64_t row = splitCode(g, code, w);
        std::int64_t t = rows.nextCausal(g, row, row_end);
        bool same_row = t == row;
        if (same_row &&
            !fillSpatial(g, rows, w, budgets.data(), 0, true, 0)) {
            t = rows.nextCausal(g, t + 1, row_end);
            same_row = false;
        }
        if (t >= row_end)
            return hi;
        if (!same_row)
            w = rows.firstSpatial;
        std::int64_t out = t;
        for (int i = 0; i < g.spatialRows; i++)
            out = out * g.rowBlock + w[std::size_t(i)];
        return std::min(out, hi);
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

/**
 * One chunk-local survivor. The `*After` counters snapshot the chunk's
 * accounting through this survivor's code, so a `limit` stop can report
 * exactly the stats the serial scan would have at that code.
 */
struct ChunkSurvivor
{
    std::int64_t code = 0;
    SpaceTimeTransform transform; //!< named when the merge yields it
    std::vector<std::int64_t> signature;
    std::any annotation;
    std::int64_t examinedAfter = 0; //!< codes of this chunk covered
    std::int64_t decodedAfter = 0;
    std::int64_t rejectedAfter = 0;
    std::int64_t duplicatesAfter = 0;
};

struct ChunkResult
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t decoded = 0;
    std::int64_t rejected = 0;
    std::int64_t duplicates = 0; //!< chunk-local signature duplicates
    std::vector<ChunkSurvivor> survivors;
};

/**
 * Scan [lo, hi), decoding only the codes nextFeasible lands on,
 * dedup-ing locally by signature (keeping the first code of each —
 * exactly what the global in-order merge keeps), and annotating each
 * local survivor when an annotator is given.
 */
ChunkResult
scanChunk(Scanner &scanner, std::int64_t lo, std::int64_t hi,
          const Annotator &annotate)
{
    ChunkResult res;
    res.lo = lo;
    res.hi = hi;
    SignatureSet local;
    for (std::int64_t code = scanner.nextFeasible(lo, hi); code < hi;
         code = scanner.nextFeasible(code + 1, hi)) {
        res.decoded++;
        if (!scanner.decode(code)) {
            res.rejected++;
            continue;
        }
        if (!local.insert(scanner.signature).second) {
            res.duplicates++;
            continue;
        }
        ChunkSurvivor s;
        s.code = code;
        s.transform = SpaceTimeTransform(scanner.materialize());
        s.signature = scanner.signature;
        if (annotate)
            s.annotation = annotate(s.transform);
        s.examinedAfter = code - lo + 1;
        s.decodedAfter = res.decoded;
        s.rejectedAfter = res.rejected;
        s.duplicatesAfter = res.duplicates;
        res.survivors.push_back(std::move(s));
    }
    return res;
}

/**
 * Deterministic chunk schedule, independent of the thread count: early
 * chunks are small so tiny `limit`s stop after near-serial work, later
 * chunks grow geometrically to amortize merge overhead. The cap keeps
 * the survivors of the in-flight window small: a chunk costs work in
 * proportion to its feasible codes only, so more chunks cost little.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
chunkBounds(std::int64_t total)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    std::int64_t lo = 0;
    std::int64_t size = kFirstChunkCodes;
    while (lo < total) {
        std::int64_t hi = std::min(total, lo + size);
        out.emplace_back(lo, hi);
        lo = hi;
        size = std::min<std::int64_t>(size * 2, std::int64_t(1) << 18);
    }
    if (out.empty())
        out.emplace_back(0, 0);
    return out;
}

/** What every decode under one (spec, options) pair shares. */
struct ScanContext
{
    EnumerateOptions options;
    Geometry g;
    std::vector<func::Recurrence> recurrences;
    RowTables rows;
    Scanner scanner; //!< serial/decode scratch; references the above
    std::optional<FeasibleIndex> feasible; //!< built on first use

    ScanContext(const func::FunctionalSpec &spec,
                const EnumerateOptions &opts)
        : options(opts),
          g(geometryFor(checkedIndices(spec), opts)),
          recurrences(spec.recurrences()),
          rows(g, recurrences, options),
          scanner(g, recurrences, options, rows)
    {
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

    /** The scan's chunk schedule: the whole space unsharded, else the
     *  bounds of chunkBounds(hi - lo) shifted onto the shard's [lo, hi).
     *  The scan needs no other change: nextFeasible starts anywhere. */
    std::vector<std::pair<std::int64_t, std::int64_t>> chunkSchedule()
    {
        if (options.shardCount <= 0)
            return chunkBounds(g.total);
        auto [lo, hi] = shardRange(options.shardIndex, options.shardCount);
        auto out = chunkBounds(hi - lo);
        for (auto &bounds : out) {
            bounds.first += lo;
            bounds.second += lo;
        }
        return out;
    }
};

} // namespace

struct TransformStream::Impl : ScanContext
{
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::int64_t rangeLo = 0; //!< first code of the (shard) range
    std::int64_t rangeHi = 0; //!< first code past it
    std::size_t nextToIssue = 0;
    std::size_t window = 0;

    ChunkResult current;
    std::size_t cursor = 0;
    bool haveCurrent = false;
    bool done = false;

    SignatureSet signatures;
    // Totals over fully consumed chunks; merge-level duplicates are
    // tracked separately because they belong to the consuming walk.
    std::int64_t priorExamined = 0;
    std::int64_t priorDecoded = 0;
    std::int64_t priorRejected = 0;
    std::int64_t priorDuplicates = 0;
    std::int64_t mergeDuplicates = 0;
    // Serial-equivalent accounting at the last yielded code, for
    // `limit`/stop() finalization.
    std::int64_t lastExamined = 0;
    std::int64_t lastDecoded = 0;
    std::int64_t lastRejected = 0;
    std::int64_t lastDuplicates = 0;
    EnumerateStats stats;

    // One annotator per worker: a chunk task borrows an idle one (or
    // builds one) and returns it when the chunk is scanned.
    AnnotatorFactory annotators;
    std::mutex idleMutex;
    std::vector<Annotator> idle;

    std::deque<std::future<ChunkResult>> inflight;
    // Declared last: destroyed first, so worker tasks referencing the
    // members above are joined/discarded before those members die.
    std::unique_ptr<util::ThreadPool> pool;

    Impl(const func::FunctionalSpec &spec, const EnumerateOptions &opts,
         AnnotatorFactory factory)
        : ScanContext(spec, opts), chunks(chunkSchedule()),
          rangeLo(chunks.front().first), rangeHi(chunks.back().second),
          annotators(std::move(factory))
    {
        stats.codesTotal = g.total;
        std::size_t threads = options.threads;
        if (threads == 0)
            threads = std::max<std::size_t>(
                    1, std::thread::hardware_concurrency());
        if (threads > 1 && chunks.size() > 1) {
            window = threads * 2 + 2;
            pool = std::make_unique<util::ThreadPool>(threads);
        }
    }

    Annotator borrowAnnotator()
    {
        if (!annotators)
            return {};
        {
            std::lock_guard<std::mutex> lock(idleMutex);
            if (!idle.empty()) {
                Annotator out = std::move(idle.back());
                idle.pop_back();
                return out;
            }
        }
        return annotators();
    }

    void returnAnnotator(Annotator annotator)
    {
        if (!annotator)
            return;
        std::lock_guard<std::mutex> lock(idleMutex);
        idle.push_back(std::move(annotator));
    }

    ChunkResult scan(Scanner &scanner,
                     std::pair<std::int64_t, std::int64_t> bounds)
    {
        Annotator annotate = borrowAnnotator();
        ChunkResult res =
                scanChunk(scanner, bounds.first, bounds.second, annotate);
        returnAnnotator(std::move(annotate));
        return res;
    }

    void issueChunk()
    {
        auto bounds = chunks[nextToIssue++];
        inflight.push_back(pool->submit([this, bounds]() {
            Scanner local(g, recurrences, options, rows);
            return scan(local, bounds);
        }));
    }

    bool fetchNextChunk()
    {
        if (pool) {
            while (inflight.size() < window && nextToIssue < chunks.size())
                issueChunk();
            if (inflight.empty())
                return false;
            current = inflight.front().get();
            inflight.pop_front();
            while (inflight.size() < window && nextToIssue < chunks.size())
                issueChunk();
        } else {
            if (nextToIssue >= chunks.size())
                return false;
            current = scan(scanner, chunks[nextToIssue++]);
        }
        cursor = 0;
        haveCurrent = true;
        return true;
    }

    /** Fill the counters for a scan that covered `examined` codes from
     *  the range start; the two skip counts follow in closed form. */
    void finalize(std::int64_t examined, std::int64_t decoded,
                  std::int64_t rejected, std::int64_t duplicates)
    {
        const std::int64_t canonical =
                canonicalBelow(g, rangeLo + examined) -
                canonicalBelow(g, rangeLo);
        stats.codesExamined = examined;
        stats.orbitSkipped = examined - canonical;
        stats.feasibilitySkipped = canonical - decoded;
        stats.decoded = decoded;
        stats.rejected = rejected;
        stats.duplicates = duplicates;
        done = true;
    }

    void finalizeAtLastYield()
    {
        finalize(lastExamined, lastDecoded, lastRejected, lastDuplicates);
    }

    bool next(EnumeratedTransform &out)
    {
        if (done)
            return false;
        for (;;) {
            while (haveCurrent && cursor < current.survivors.size()) {
                ChunkSurvivor &s = current.survivors[cursor++];
                if (!signatures.insert(s.signature).second) {
                    mergeDuplicates++;
                    continue;
                }
                out.code = s.code;
                out.index = std::size_t(stats.yielded);
                out.signature = std::move(s.signature);
                out.transform = std::move(s.transform);
                out.transform.setName("enumerated-" +
                                      std::to_string(out.index));
                out.annotation = std::move(s.annotation);
                stats.yielded++;
                lastExamined = priorExamined + s.examinedAfter;
                lastDecoded = priorDecoded + s.decodedAfter;
                lastRejected = priorRejected + s.rejectedAfter;
                lastDuplicates = priorDuplicates + s.duplicatesAfter +
                                 mergeDuplicates;
                out.examinedAfter = lastExamined;
                out.decodedAfter = lastDecoded;
                out.rejectedAfter = lastRejected;
                out.duplicatesAfter = lastDuplicates;
                if (std::uint64_t(stats.yielded) >=
                    std::uint64_t(options.limit))
                    finalizeAtLastYield();
                return true;
            }
            if (haveCurrent) {
                priorExamined += current.hi - current.lo;
                priorDecoded += current.decoded;
                priorRejected += current.rejected;
                priorDuplicates += current.duplicates;
                haveCurrent = false;
            }
            if (!fetchNextChunk()) {
                finalize(priorExamined, priorDecoded, priorRejected,
                         priorDuplicates + mergeDuplicates);
                return false;
            }
        }
    }

    void stop()
    {
        if (done)
            return;
        if (stats.yielded > 0)
            finalizeAtLastYield();
        else
            finalize(0, 0, 0, 0);
    }
};

TransformStream::TransformStream(const func::FunctionalSpec &spec,
                                 const EnumerateOptions &options,
                                 AnnotatorFactory annotators)
    : impl_(std::make_unique<Impl>(spec, options, std::move(annotators)))
{
}

TransformStream::~TransformStream() = default;
TransformStream::TransformStream(TransformStream &&) noexcept = default;
TransformStream &
TransformStream::operator=(TransformStream &&) noexcept = default;

bool
TransformStream::next(EnumeratedTransform &out)
{
    return impl_->next(out);
}

void
TransformStream::stop()
{
    impl_->stop();
}

const EnumerateStats &
TransformStream::stats() const
{
    return impl_->stats;
}

std::pair<std::int64_t, std::int64_t>
TransformStream::range() const
{
    return {impl_->rangeLo, impl_->rangeHi};
}

void
forEachTransform(const func::FunctionalSpec &spec,
                 const EnumerateOptions &options, const TransformSink &sink,
                 EnumerateStats *stats, AnnotatorFactory annotators)
{
    TransformStream stream(spec, options, std::move(annotators));
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

bool
CandidateDecoder::decode(std::int64_t code)
{
    return impl_->scanner.decode(code);
}

IntMatrix
CandidateDecoder::matrix() const
{
    return impl_->scanner.materialize();
}

const std::vector<std::int64_t> &
CandidateDecoder::signature() const
{
    return impl_->scanner.signature;
}

} // namespace detail

} // namespace stellar::dataflow
