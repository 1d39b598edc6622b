#include "dataflow/enumerate.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <future>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace stellar::dataflow
{

namespace
{

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

/** Historical cap for the materializing enumerateTransforms(). */
constexpr std::int64_t kMaxMaterializedCodes = 100000000;

/** Hard cap on the streaming scan (keeps code arithmetic in int64). */
constexpr std::int64_t kMaxStreamCodes = 2000000000;

/** A code that survived decode, invertibility, and causality checks. */
struct RawCandidate
{
    IntMatrix matrix;
    std::vector<std::int64_t> signature;
};

/**
 * Decode one coefficient code and run the per-candidate filters;
 * nullopt when rejected. Used by the serial oracle.
 */
std::optional<RawCandidate>
candidateAt(std::int64_t code, int n, std::int64_t min_coeff,
            std::int64_t range,
            const std::vector<func::Recurrence> &recurrences,
            const EnumerateOptions &options)
{
    IntMatrix m(n, n);
    std::int64_t rest = code;
    for (int r = 0; r < n; r++) {
        for (int c = 0; c < n; c++) {
            m.at(r, c) = min_coeff + rest % range;
            rest /= range;
        }
    }
    if (!m.isInvertible())
        return std::nullopt;

    // Causality + wiring constraints over the recurrences.
    std::vector<IntVec> displacements;
    for (const auto &rec : recurrences) {
        IntVec st = m * rec.diff;
        std::int64_t dt = st.back();
        if (dt < 0 || (dt == 0 && !options.allowBroadcast))
            return std::nullopt;
        std::int64_t hops = 0;
        for (std::size_t axis = 0; axis + 1 < st.size(); axis++)
            hops += st[axis] < 0 ? -st[axis] : st[axis];
        if (hops > options.maxHopLength)
            return std::nullopt;
        displacements.push_back(std::move(st));
    }

    // Canonical signature modulo spatial-axis permutation and
    // reflection: per-axis columns of |displacement|, sorted, plus
    // the time displacements.
    RawCandidate candidate;
    candidate.matrix = std::move(m);
    if (!displacements.empty()) {
        std::size_t dims = displacements[0].size();
        std::vector<IntVec> columns;
        for (std::size_t axis = 0; axis + 1 < dims; axis++) {
            IntVec column;
            for (const auto &st : displacements) {
                std::int64_t v = st[axis];
                column.push_back(v < 0 ? -v : v);
            }
            columns.push_back(std::move(column));
        }
        std::sort(columns.begin(), columns.end());
        for (const auto &column : columns)
            candidate.signature.insert(candidate.signature.end(),
                                       column.begin(), column.end());
        for (const auto &st : displacements)
            candidate.signature.push_back(st.back());
    }
    return candidate;
}

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

/**
 * The smallest orbit-canonical code >= `code` (total when exhausted).
 * Canonical means every spatial block <= cap and, most-significant
 * spatial digit first, the blocks are non-decreasing.
 */
std::int64_t
nextCanonical(const Geometry &g, std::int64_t code)
{
    if (!g.canonical)
        return code;
    const int m = g.spatialRows;
    const std::int64_t B = g.rowBlock;

    // w[i] = spatial block at significance rank i (w[0] most
    // significant = row m-1's block).
    std::int64_t rest = code;
    std::array<std::int64_t, 4> w{};
    for (int r = 0; r < m; r++) {
        w[std::size_t(m - 1 - r)] = rest % B;
        rest /= B;
    }
    std::int64_t t = rest;

    std::int64_t floor_v = 0;
    int bad = -1;
    bool over_cap = false;
    for (int i = 0; i < m; i++) {
        std::int64_t v = w[std::size_t(i)];
        if (v > g.cap) {
            bad = i;
            over_cap = true;
            break;
        }
        if (v < floor_v) {
            bad = i;
            break;
        }
        floor_v = v;
    }
    if (bad < 0)
        return code;

    if (!over_cap) {
        // Raise position `bad` to the running floor; the minimal valid
        // suffix repeats that value.
        for (int j = bad; j < m; j++)
            w[std::size_t(j)] = floor_v;
    } else {
        // Position `bad` exceeded the cap: increment the deepest prior
        // position that can absorb a carry, minimal suffix after it.
        int p = bad - 1;
        while (p >= 0 && w[std::size_t(p)] + 1 > g.cap)
            p--;
        if (p < 0) {
            t++;
            if (t >= B)
                return g.total; // exhausted
            for (int j = 0; j < m; j++)
                w[std::size_t(j)] = 0;
        } else {
            w[std::size_t(p)]++;
            for (int j = p + 1; j < m; j++)
                w[std::size_t(j)] = w[std::size_t(p)];
        }
    }

    std::int64_t out = t;
    for (int i = 0; i < m; i++)
        out = out * B + w[std::size_t(i)];
    return out;
}

/**
 * Per-chunk scan scratch. Decodes into a flat cell array, computes the
 * determinant in closed form (n <= 4), and builds signatures into
 * reused buffers — the hot loop allocates only for survivors.
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

    /** Decode + filter `code`; true when it survives (signature set). */
    bool decode(std::int64_t code)
    {
        const int n = g.n;
        std::int64_t rest = code;
        for (int cell = 0; cell < n * n; cell++) {
            cells[std::size_t(cell)] = g.minCoeff + rest % g.range;
            rest /= g.range;
        }
        if (determinant() == 0)
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

  private:
    std::int64_t determinant() const
    {
        const std::int64_t *a = cells.data();
        switch (g.n) {
        case 1:
            return a[0];
        case 2:
            return a[0] * a[3] - a[1] * a[2];
        case 3:
            return a[0] * (a[4] * a[8] - a[5] * a[7]) -
                   a[1] * (a[3] * a[8] - a[5] * a[6]) +
                   a[2] * (a[3] * a[7] - a[4] * a[6]);
        default: {
            auto det3 = [&](int c1, int c2, int c3) {
                return a[4 + c1] * (a[8 + c2] * a[12 + c3] -
                                    a[8 + c3] * a[12 + c2]) -
                       a[4 + c2] * (a[8 + c1] * a[12 + c3] -
                                    a[8 + c3] * a[12 + c1]) +
                       a[4 + c3] * (a[8 + c1] * a[12 + c2] -
                                    a[8 + c2] * a[12 + c1]);
            };
            return a[0] * det3(1, 2, 3) - a[1] * det3(0, 2, 3) +
                   a[2] * det3(0, 1, 3) - a[3] * det3(0, 1, 2);
        }
        }
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
    IntMatrix matrix;
    std::vector<std::int64_t> signature;
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
 * Scan [lo, hi), skipping non-canonical codes, dedup-ing locally by
 * signature (keeping the first code of each — exactly what the global
 * in-order merge keeps).
 */
ChunkResult
scanChunk(Scanner &scanner, const Geometry &g, std::int64_t lo,
          std::int64_t hi)
{
    ChunkResult res;
    res.lo = lo;
    res.hi = hi;
    std::set<std::vector<std::int64_t>> local;
    std::int64_t code = nextCanonical(g, lo);
    while (code < hi) {
        res.decoded++;
        if (scanner.decode(code)) {
            if (local.insert(scanner.signature).second) {
                ChunkSurvivor s;
                s.code = code;
                s.matrix = scanner.materialize();
                s.signature = scanner.signature;
                s.examinedAfter = code - lo + 1;
                s.decodedAfter = res.decoded;
                s.rejectedAfter = res.rejected;
                s.duplicatesAfter = res.duplicates;
                res.survivors.push_back(std::move(s));
            } else {
                res.duplicates++;
            }
        } else {
            res.rejected++;
        }
        if (code + 1 >= hi)
            break;
        code = nextCanonical(g, code + 1);
    }
    return res;
}

/**
 * Deterministic chunk schedule, independent of the thread count: early
 * chunks are small so tiny `limit`s stop after near-serial work, later
 * chunks grow geometrically to amortize merge overhead.
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
        size = std::min<std::int64_t>(size * 2, std::int64_t(1) << 21);
    }
    if (out.empty())
        out.emplace_back(0, 0);
    return out;
}

/**
 * Chunk schedule restricted to the options' shard slice: the bounds of
 * `chunkBounds(hi - lo)` shifted by `lo`, where [lo, hi) is slice
 * `shardIndex` of `shardCount` equal contiguous pieces of the full
 * space — `total*i/N` arithmetic, so the N slices partition
 * [0, total) exactly. The scan itself needs no other change:
 * `nextCanonical` works from any starting code.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
shardChunkBounds(const Geometry &g, const EnumerateOptions &options)
{
    if (options.shardCount <= 0)
        return chunkBounds(g.total);
    require(options.shardIndex >= 0 &&
                    options.shardIndex < options.shardCount,
            "enumeration shard index out of range");
    std::int64_t lo = g.total * options.shardIndex / options.shardCount;
    std::int64_t hi =
            g.total * (options.shardIndex + 1) / options.shardCount;
    auto out = chunkBounds(hi - lo);
    for (auto &bounds : out) {
        bounds.first += lo;
        bounds.second += lo;
    }
    return out;
}

/** What every decode under one (spec, options) pair shares. */
struct ScanContext
{
    EnumerateOptions options;
    Geometry g;
    std::vector<func::Recurrence> recurrences;
    Scanner scanner; //!< serial/decode scratch; references the above

    ScanContext(const func::FunctionalSpec &spec,
                const EnumerateOptions &opts)
        : options(opts),
          g(geometryFor(checkedIndices(spec), opts)),
          recurrences(spec.recurrences()),
          scanner(g, recurrences, options)
    {
    }
};

} // namespace

struct TransformStream::Impl : ScanContext
{
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::size_t nextToIssue = 0;
    std::size_t window = 0;

    ChunkResult current;
    std::size_t cursor = 0;
    bool haveCurrent = false;
    bool done = false;

    std::set<std::vector<std::int64_t>> signatures;
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

    std::deque<std::future<ChunkResult>> inflight;
    // Declared last: destroyed first, so worker tasks referencing the
    // members above are joined/discarded before those members die.
    std::unique_ptr<util::ThreadPool> pool;

    Impl(const func::FunctionalSpec &spec, const EnumerateOptions &opts)
        : ScanContext(spec, opts), chunks(shardChunkBounds(g, opts))
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

    void issueChunk()
    {
        auto bounds = chunks[nextToIssue++];
        inflight.push_back(pool->submit([this, bounds]() {
            Scanner local(g, recurrences, options);
            return scanChunk(local, g, bounds.first, bounds.second);
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
            auto bounds = chunks[nextToIssue++];
            current = scanChunk(scanner, g, bounds.first, bounds.second);
        }
        cursor = 0;
        haveCurrent = true;
        return true;
    }

    void finalizeAtLastYield()
    {
        stats.codesExamined = lastExamined;
        stats.decoded = lastDecoded;
        stats.rejected = lastRejected;
        stats.duplicates = lastDuplicates;
        stats.orbitSkipped = stats.codesExamined - stats.decoded;
        done = true;
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
                out.signature = s.signature;
                out.transform = SpaceTimeTransform(
                        std::move(s.matrix),
                        "enumerated-" + std::to_string(out.index));
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
                stats.codesExamined = priorExamined;
                stats.decoded = priorDecoded;
                stats.rejected = priorRejected;
                stats.duplicates = priorDuplicates + mergeDuplicates;
                stats.orbitSkipped = stats.codesExamined - stats.decoded;
                done = true;
                return false;
            }
        }
    }

    void stop()
    {
        if (done)
            return;
        if (stats.yielded > 0) {
            finalizeAtLastYield();
        } else {
            stats.codesExamined = 0;
            stats.orbitSkipped = 0;
            stats.decoded = 0;
            stats.rejected = 0;
            stats.duplicates = 0;
            done = true;
        }
    }
};

TransformStream::TransformStream(const func::FunctionalSpec &spec,
                                 const EnumerateOptions &options)
    : impl_(std::make_unique<Impl>(spec, options))
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

std::vector<SpaceTimeTransform>
enumerateTransforms(const func::FunctionalSpec &spec,
                    const EnumerateOptions &options, EnumerateStats *stats)
{
    if (geometryFor(checkedIndices(spec), options).total >
        kMaxMaterializedCodes) {
        fatal("transform enumeration space too large; narrow the "
              "coefficient range");
    }
    std::vector<SpaceTimeTransform> found;
    forEachTransform(
            spec, options,
            [&](const EnumeratedTransform &item) {
                found.push_back(item.transform);
                return true;
            },
            stats);
    return found;
}

namespace detail
{

std::vector<SpaceTimeTransform>
enumerateTransformsOracle(const func::FunctionalSpec &spec,
                          const EnumerateOptions &options)
{
    int n = spec.numIndices();
    require(n >= 1 && n <= 4,
            "transform enumeration supports 1 to 4 iterators");
    std::int64_t range = options.maxCoeff - options.minCoeff + 1;
    require(range >= 2, "coefficient range must span at least two values");

    auto recurrences = spec.recurrences();

    std::int64_t cells = std::int64_t(n) * n;
    std::int64_t total = 1;
    for (std::int64_t c = 0; c < cells; c++) {
        total *= range;
        if (total > kMaxMaterializedCodes) {
            fatal("transform enumeration space too large; narrow the "
                  "coefficient range");
        }
    }

    std::vector<SpaceTimeTransform> found;
    std::set<std::vector<std::int64_t>> signatures;
    for (std::int64_t code = 0; code < total; code++) {
        auto candidate = candidateAt(code, n, options.minCoeff, range,
                                     recurrences, options);
        if (!candidate)
            continue;
        if (!signatures.insert(candidate->signature).second)
            continue; // same displacement structure as before
        found.emplace_back(std::move(candidate->matrix),
                           "enumerated-" + std::to_string(found.size()));
        if (found.size() >= options.limit)
            break;
    }
    return found;
}

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
    return nextCanonical(impl_->g, code) == code;
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
