/**
 * @file
 * Automated dataflow enumeration — the design-space-exploration side of
 * "an automated design framework".
 *
 * Because a dataflow is just an invertible integer matrix (Section
 * III-B), the space of dataflows for a given functional spec can be
 * enumerated mechanically: all matrices with entries in a small range,
 * filtered to invertible and causal ones, deduplicated by the
 * space-time displacements they induce on the spec's recurrences (two
 * transforms that move every operand identically generate the same
 * array up to relabeling).
 *
 * `SurvivorStream` yields survivors as plain values (code, yield index,
 * scan accounting, score verdict) in code order, so a DSE tier holds
 * O(K) live state and builds transforms only for the codes it keeps;
 * `forEachTransform` reads the stream as named transforms. Most codes
 * are sign/permutation-orbit duplicates of a smaller code or fail
 * causality (a test on the time row alone) or the hop limit (a budget
 * over the spatial rows). The rest, the feasible codes, are indexed in
 * closed form (causal time rows x sorted spatial tuples), so the scan
 * walks exactly them in chunks of equal feasible counts and counts the
 * others in closed form. A SurvivorScorer scores each survivor from its
 * cells on the worker that found it. docs/PARALLEL_DSE.md has the
 * byte-identity contract, the orbit argument and the chunk schedule.
 */

#ifndef STELLAR_DATAFLOW_ENUMERATE_HPP
#define STELLAR_DATAFLOW_ENUMERATE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dataflow/transform.hpp"
#include "func/spec.hpp"

namespace stellar::dataflow
{

/** Constraints on the enumeration. */
struct EnumerateOptions
{
    std::int64_t minCoeff = -1;
    std::int64_t maxCoeff = 1;

    /** Reject dataflows where any operand moves more than this many PEs
     *  per hop (long wires; congestion). */
    std::int64_t maxHopLength = 2;

    /** Reject dataflows with combinational chains when false. */
    bool allowBroadcast = true;

    /** Cap on results (the space grows as (range)^(n^2)). */
    std::size_t limit = 4096;

    /**
     * Worker threads for the coefficient-code scan: 0 = hardware
     * concurrency, 1 = serial. The scan walks a deterministic chunk
     * schedule (independent of the thread count) and merges chunks in
     * code order, so the stream — matrices, dedup decisions, names, and
     * stats — is byte-identical to the serial scan at every thread
     * count, including `limit` early exit. (Scans of one chunk run
     * serially regardless.)
     */
    std::size_t threads = 0;

    /**
     * Skip coefficient codes that cannot be the smallest member of
     * their sign/permutation orbit. Negating or permuting *spatial*
     * rows of a transform preserves invertibility, causality, hop
     * length, and the dedup signature, so every non-canonical code that
     * would survive the filters is a signature duplicate of a smaller
     * canonical code — skipping it never changes the output, only
     * `EnumerateStats::orbitSkipped`. Sign canonicalization requires a
     * symmetric coefficient range (minCoeff == -maxCoeff); asymmetric
     * ranges canonicalize by row permutation only.
     */
    bool orbitCanonical = true;

    /**
     * Restrict the scan to shard `shardIndex` of `shardCount`
     * contiguous slices of the coefficient-code space, cut at equal
     * counts of feasible codes (the codes the scan decodes), so every
     * shard decodes the same number of codes to within one
     * (detail::CandidateDecoder::shardRange). `shardCount == 0` means
     * unsharded; `shardCount == 1` is byte-identical to unsharded.
     * Stats are range-relative: `codesTotal` stays the full space, the
     * other counters cover only this shard's slice, so shard record
     * files can be folded back into the single-process accounting
     * (src/accel/records.hpp).
     */
    std::int64_t shardIndex = 0;
    std::int64_t shardCount = 0;
};

/**
 * Accounting for one enumeration scan (serial semantics at any thread
 * count). Invariants: codesExamined == orbitSkipped +
 * feasibilitySkipped + decoded and decoded == rejected + duplicates +
 * yielded. Every counter is a function of the code range covered, never
 * of the chunking: orbitSkipped counts the non-canonical codes of the
 * range, feasibilitySkipped the canonical codes that fail causality or
 * the hop limit (both in closed form), and decoded exactly the canonical
 * codes that pass both, so `rejected` counts only singular matrices.
 */
struct EnumerateStats
{
    std::int64_t codesTotal = 0;    //!< range^(n^2), the full space
    std::int64_t codesExamined = 0; //!< codes covered before the stop
    std::int64_t orbitSkipped = 0;  //!< non-canonical, never decoded
    std::int64_t feasibilitySkipped = 0; //!< canonical but acausal or
                                         //!< over the hop limit
    std::int64_t decoded = 0;       //!< decoded and filtered
    std::int64_t rejected = 0;      //!< failed invertibility
    std::int64_t duplicates = 0;    //!< filtered by signature dedup
    std::int64_t yielded = 0;       //!< survivors produced
};

/** What a SurvivorScorer decided about one survivor. */
struct Verdict
{
    bool pruned = false;    //!< dropped by the scorer's filter; not scored
    bool saturated = false; //!< the score was clamped (ranks last)
    double score = 0.0;
};

/**
 * Per-survivor work on the scan worker that found it, before the
 * in-order merge; a pure function of the cells, since it also runs for
 * survivors the merge drops. Each worker scores with its own clone,
 * made on that worker, so `clone` must be safe to call concurrently.
 */
class SurvivorScorer
{
  public:
    virtual ~SurvivorScorer() = default;
    virtual std::unique_ptr<SurvivorScorer> clone() const = 0;

    /** Score the survivor whose row-major n x n matrix is `cells`. */
    virtual Verdict score(std::span<const std::int64_t> cells) = 0;

  protected:
    SurvivorScorer() = default;
    SurvivorScorer(const SurvivorScorer &) = default; //!< for clone()
    SurvivorScorer &operator=(const SurvivorScorer &) = delete;
};

/** One survivor of the coefficient-code scan, as a plain value. */
struct Survivor
{
    std::int64_t code = 0;  //!< the coefficient code it decodes from
    std::size_t index = 0;  //!< 0-based yield order (the "enumerated-N" N)

    /**
     * Serial-equivalent scan accounting through this survivor's code
     * (range-relative when sharded), from which a consumer stopping here
     * — or a merge folding shard files — rebuilds the serial stats; the
     * skip counts follow from CandidateDecoder::canonicalBelow.
     */
    std::int64_t examinedAfter = 0;
    std::int64_t decodedAfter = 0;
    std::int64_t rejectedAfter = 0;
    std::int64_t duplicatesAfter = 0;

    /** The stream's scorer's verdict (default without a scorer). */
    Verdict verdict;
};

/** A survivor with its transform "enumerated-<index>" and signature. */
struct EnumeratedTransform : Survivor
{
    SpaceTimeTransform transform;
    std::vector<std::int64_t> signature;
};

/**
 * Pull-style streaming enumerator over plain survivors. `next` yields
 * them in code order, byte-identical to the serial scan at any
 * `threads`. `stats()` is valid once `next` has returned false
 * (exhaustion or `limit`) or after `stop()`.
 */
class SurvivorStream
{
  public:
    /** `scorer`, when given, is cloned per worker and must outlive the
     *  stream. */
    SurvivorStream(const func::FunctionalSpec &spec,
                   const EnumerateOptions &options,
                   const SurvivorScorer *scorer = nullptr);
    ~SurvivorStream();

    /** Produce the next survivor; false when done (stats finalized). */
    bool next(Survivor &out);

    /** The same, with its transform and signature (consumer-side). */
    bool next(EnumeratedTransform &out);

    /** Abandon the scan, finalizing stats at the last yielded code. */
    void stop();

    const EnumerateStats &stats() const;

    /** The codes [lo, hi) the scan covers: the whole space unsharded,
     *  else its shard's slice. */
    std::pair<std::int64_t, std::int64_t> range() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

namespace detail
{

/**
 * The one decode path outside the scan (kept codes of the DSE and the
 * shard-records merge, and the tests' and fuzz harness's checks): built
 * once per (spec, options); `decode` runs the scan's filters on a code.
 */
class CandidateDecoder
{
  public:
    CandidateDecoder(const func::FunctionalSpec &spec,
                     const EnumerateOptions &options);
    ~CandidateDecoder();

    /** range^(n^2), the full code space. */
    std::int64_t codesTotal() const;

    /** True when `code` is the canonical representative of its
     *  sign/permutation orbit (always true when orbit canonicalization
     *  is inactive for this spec/options combination). */
    bool canonical(std::int64_t code) const;

    /** The number of canonical codes in [0, code), in closed form
     *  (`code` itself when orbit canonicalization is inactive). */
    std::int64_t canonicalBelow(std::int64_t code) const;

    /** The number of feasible codes in [0, code): orbit-canonical,
     *  causal and within the hop limit, exactly the codes the scan
     *  decodes. Closed form over an index built on first use. */
    std::int64_t feasibleBelow(std::int64_t code);

    /** The codes [lo, hi) shard `index` of `count` owns: the split
     *  EnumerateOptions::shardIndex selects, cut at the
     *  (F * index / count)-th feasible code, F = feasibleBelow(total). */
    std::pair<std::int64_t, std::int64_t> shardRange(std::int64_t index,
                                                     std::int64_t count);

    /** The codes [lo, hi) of the scan's chunk `i`, or none past it. */
    std::optional<std::pair<std::int64_t, std::int64_t>>
    chunk(std::size_t i);

    /** Decode `code` and run the filters; true when it survives. */
    bool decode(std::int64_t code);

    /** The transform "enumerated-<index>" of a surviving code. */
    SpaceTimeTransform transform(std::int64_t code, std::size_t index);

    /** The last decode's row-major cells and dedup signature. */
    std::span<const std::int64_t> cells() const;
    const std::vector<std::int64_t> &signature() const;

    /** The length of every survivor's signature. */
    std::size_t signatureWidth() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Signature dedup set: equal-length signatures stored back to back in
 * insertion order, found through an open-addressing table, so no
 * signature allocates alone. Hash order never reaches an output.
 */
class SignatureSet
{
  public:
    /** The hash a signature is filed under: a pure function of it, so
     *  a caller may compute it off the inserting thread. */
    static std::uint64_t hash(std::span<const std::int64_t> signature);

    /** `signature`'s entry number, and whether this call added it. */
    std::pair<std::size_t, bool>
    insert(std::span<const std::int64_t> signature);

    /** The same, with `hash(signature)` given. */
    std::pair<std::size_t, bool>
    insert(std::span<const std::int64_t> signature,
           std::uint64_t signature_hash);

    /** Room for `entries` signatures of `width` values: adding that
     *  many rehashes and reallocates nothing. */
    void reserve(std::size_t entries, std::size_t width);

    /** Forget every entry, keeping the storage. */
    void clear();

    /** The entries, back to back in insertion order. */
    const std::vector<std::int64_t> &values() const { return values_; }

  private:
    void rehash(std::size_t slots);

    std::size_t width_ = 0;
    std::size_t size_ = 0;
    std::vector<std::int64_t> values_;
    std::vector<std::uint32_t> slots_; //!< entry number + 1; 0 = empty
};

} // namespace detail

/** The stream read as transforms (SurvivorStream::next's overload). */
using TransformStream = SurvivorStream;

/** Return false from the sink to stop the scan early. */
using TransformSink = std::function<bool(const EnumeratedTransform &)>;

/**
 * Push-style wrapper over TransformStream: invoke `sink` for each
 * survivor in code order. When `stats` is non-null it receives the
 * scan accounting (serial semantics at any thread count).
 */
void forEachTransform(const func::FunctionalSpec &spec,
                      const EnumerateOptions &options,
                      const TransformSink &sink,
                      EnumerateStats *stats = nullptr);

} // namespace stellar::dataflow

#endif // STELLAR_DATAFLOW_ENUMERATE_HPP
