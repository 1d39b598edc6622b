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
 * The enumerator is a *stream*: `TransformStream` / `forEachTransform`
 * yield `(code, matrix, signature)` survivors in code order without
 * materializing the whole transform vector, so a DSE tier can score
 * candidates as the scan produces them with O(K) live state. Most
 * coefficient codes are sign/permutation-orbit duplicates of a smaller
 * code, and most of the rest fail causality (a test on the time row
 * alone) or the hop limit (a per-recurrence budget over the spatial
 * rows). The scan decides all three from coefficient structure, without
 * decoding, and jumps straight to the next code that passes them; the
 * skipped codes are counted in closed form. A per-worker annotator
 * (e.g. a cost model) can process each survivor on the worker that
 * found it. See docs/PARALLEL_DSE.md for the byte-identity contract and
 * the orbit and jump arguments.
 */

#ifndef STELLAR_DATAFLOW_ENUMERATE_HPP
#define STELLAR_DATAFLOW_ENUMERATE_HPP

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
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
     * count, including `limit` early exit. (Small scans run serially
     * regardless.)
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

/**
 * Hash of a dedup signature (EnumeratedTransform::signature), shared by
 * every hashed signature container: the scan's chunk-local and merge
 * sets and the shard-records merge. None of them is iterated, so the
 * hash order never reaches an output.
 */
struct SignatureHash
{
    std::size_t operator()(
            const std::vector<std::int64_t> &signature) const noexcept
    {
        std::uint64_t h = 0xcbf29ce484222325ull ^ signature.size();
        for (std::int64_t v : signature) {
            h ^= std::uint64_t(v);
            h *= 0x9e3779b97f4a7c15ull;
            h ^= h >> 32;
        }
        return std::size_t(h);
    }
};

/** One survivor of the coefficient-code scan. */
struct EnumeratedTransform
{
    std::int64_t code = 0;  //!< the coefficient code it decodes from
    std::size_t index = 0;  //!< 0-based yield order (the "enumerated-N" N)
    SpaceTimeTransform transform;
    std::vector<std::int64_t> signature;

    /**
     * Serial-equivalent scan accounting through this survivor's code
     * (range-relative when sharded). A consumer that stops at this
     * yield — or a merge tool folding shard record files — can
     * reconstruct exactly the stats the serial scan would report here;
     * the two skip counts through the code follow from
     * CandidateDecoder::canonicalBelow. Invariant: examinedAfter ==
     * decodedAfter + orbit- and feasibility-skipped codes and
     * decodedAfter == rejectedAfter + duplicatesAfter + yields.
     */
    std::int64_t examinedAfter = 0;
    std::int64_t decodedAfter = 0;
    std::int64_t rejectedAfter = 0;
    std::int64_t duplicatesAfter = 0;

    /** What the stream's annotator returned for this survivor (empty
     *  without an annotator). */
    std::any annotation;
};

/**
 * Per-survivor work run on the scan worker that found the survivor,
 * before the in-order merge: the returned value rides along in
 * EnumeratedTransform::annotation. It must be a pure function of the
 * transform: it also runs for chunk-local survivors the merge later
 * drops as duplicates or past `limit`. One annotator serves one worker
 * at a time, so it may keep state that is not thread-safe.
 */
using Annotator = std::function<std::any(const SpaceTimeTransform &)>;

/** Builds one Annotator per scan worker; called on the worker threads,
 *  so it must be safe to call concurrently. */
using AnnotatorFactory = std::function<Annotator()>;

/**
 * Pull-style streaming enumerator. `next` yields survivors in code
 * order, byte-identical to the serial scan at any `threads`, without
 * materializing the transform vector. `stats()` is valid once `next`
 * has returned false (exhaustion or `limit`) or after `stop()`.
 */
class TransformStream
{
  public:
    TransformStream(const func::FunctionalSpec &spec,
                    const EnumerateOptions &options,
                    AnnotatorFactory annotators = {});
    ~TransformStream();
    TransformStream(TransformStream &&) noexcept;
    TransformStream &operator=(TransformStream &&) noexcept;

    /** Produce the next survivor; false when done (stats finalized). */
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
                      EnumerateStats *stats = nullptr,
                      AnnotatorFactory annotators = {});

namespace detail
{

/**
 * The one decode entry point outside the scan (the shard-records merge,
 * and the orbit-completeness checks of the tests and the fuzz harness):
 * built once per (spec, options), then each `decode` runs the scan's
 * own per-candidate filters on one code.
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

    /** Decode `code` and run the filters; true when it survives. */
    bool decode(std::int64_t code);

    /** The last surviving decode's matrix and dedup signature. */
    IntMatrix matrix() const;
    const std::vector<std::int64_t> &signature() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace detail

} // namespace stellar::dataflow

#endif // STELLAR_DATAFLOW_ENUMERATE_HPP
