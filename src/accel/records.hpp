/**
 * @file
 * Versioned, checksummed per-shard candidate records — the transport
 * layer that lifts the DSE's any-thread-count byte-identity contract
 * one level, to *processes*.
 *
 * A shard scan (`scanShard`) owns one contiguous slice of the
 * coefficient-code space, cut at equal counts of feasible codes
 * (CandidateDecoder::shardRange), and records every locally-deduplicated
 * survivor as four numbers: its code, closed-form analytic score
 * (saturation flag and value), and the shard-local duplicates through
 * that yield. Everything else about a record is a function of its code
 * and position: its matrix, signature and PE count; the codes examined
 * and decoded through it (code - lo + 1, feasibleBelow); and the
 * rejected codes, decoded - duplicates - yields. The merge
 * (`mergeShardRecords`) re-derives those through
 * dataflow::detail::CandidateDecoder — one per worker over code-ordered
 * chunks — and folds N shard files in code order against a global
 * signature set, the consuming walk a SurvivorStream runs over its
 * chunks, lifted to files. Then it elaborates the folded survivors
 * through the same `evaluateAndRank` back half, so the merged ranking
 * and `DseStats` are bit-for-bit a single process's
 * (tests/shard_merge_test.cpp pins this).
 *
 * The on-disk format is one line of JSON carrying a version, a kind
 * tag, and an FNV-1a checksum over the payload's raw bytes. The reader
 * is one strict forward pass that accepts exactly the bytes the writer
 * produces (docs/DISTRIBUTED.md has the grammar): integers and scores
 * are read back and re-spelled with the writer's own std::to_chars
 * call, so any damaged or re-spelled byte is rejected as a classified
 * FatalError before a single record is admitted. Mixed versions are
 * refused at parse; ranges that gap, overlap or miss the spec's cuts, a
 * `decoded` count other than the feasible codes it covers, a derived
 * rejected count that is negative, shrinks along the shard or exceeds
 * its stats, and a code that does not decode to an orbit-canonical
 * survivor are refused at merge, and shuffled input order changes
 * nothing.
 */

#ifndef STELLAR_ACCEL_RECORDS_HPP
#define STELLAR_ACCEL_RECORDS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "accel/dse.hpp"
#include "dataflow/enumerate.hpp"
#include "model/params.hpp"

namespace stellar::accel
{

/** Format version; a mismatch is a classified load error. */
inline constexpr int kRecordsVersion = 5;

/**
 * The scan parameters every shard of one sweep must agree on. These
 * mirror the serve-protocol DseRequest knobs that shape the candidate
 * space; eval-side knobs (threads, budgets) deliberately stay out —
 * they never change the ranking.
 */
struct ShardConfig
{
    std::int64_t dim = 8;        //!< cubic matmul elaboration bound
    std::int64_t maxHop = 2;     //!< EnumerateOptions::maxHopLength
    std::int64_t maxCoeff = 1;   //!< coefficient range is [-maxCoeff, maxCoeff]
    std::int64_t topK = 10;      //!< final ranking depth
    std::int64_t analyticTopK = 0; //!< analytic-tier survivors
    std::int64_t enumLimit = 4096; //!< global survivor cap (merge-side)
    std::int64_t maxPes = 0;     //!< exact PE-count prune (0 = off)
};

bool operator==(const ShardConfig &a, const ShardConfig &b);

/** The contiguous code slice one shard file covers. */
struct ShardRange
{
    std::int64_t shardIndex = 0;
    std::int64_t shardCount = 1;
    std::int64_t lo = 0; //!< first code owned (inclusive)
    std::int64_t hi = 0; //!< first code not owned (exclusive)
    std::int64_t codesTotal = 0; //!< the full space, range^(n^2)
};

/**
 * One locally-deduplicated survivor of a shard scan; its shard-local
 * yield order is its position in ShardRecords::records. Of the
 * serial-equivalent shard-relative scan accounting through this yield
 * (Survivor's `*After` snapshot), only the duplicates are stored: the
 * merge derives the rest from the code and the position, which is what
 * lets it reproduce a `--enum-limit` stop's stats exactly even when the
 * limit falls mid-shard.
 */
struct CandidateRecord
{
    std::int64_t code = 0;

    /** Closed-form analytic score; unset (0, unsaturated) when the
     *  record was maxPes-pruned and never scored. */
    bool saturated = false;
    double score = 0.0;

    std::int64_t duplicatesAfter = 0;
};

/** One shard file's worth of scan output. */
struct ShardRecords
{
    ShardConfig config;
    ShardRange range;

    /** Full-slice scan accounting (codesTotal = whole space; the other
     *  counters cover only [range.lo, range.hi)). */
    dataflow::EnumerateStats stats;

    std::vector<CandidateRecord> records;
};

/**
 * Scan shard `shard_index` of `shard_count` and record every local
 * survivor with its analytic score. The scan ignores
 * `config.enumLimit` (the limit is a *global* property only the merge
 * can apply) and records pruned survivors too, so the merge can fold
 * counters exactly. `threads` is the scan thread count (0 = hardware
 * concurrency; the records are byte-identical at any value).
 */
ShardRecords scanShard(const func::FunctionalSpec &functional,
                       const IntVec &bounds, const ShardConfig &config,
                       std::int64_t shard_index, std::int64_t shard_count,
                       std::size_t threads,
                       const model::AreaParams &area_params,
                       const model::TimingParams &timing_params);

/** Serialize to the versioned, checksummed single-line document. */
std::string serializeShardRecords(const ShardRecords &shard);

/**
 * Parse and validate one shard document as far as it can be without
 * the spec. Rejects wrong kind, version mismatch, checksum mismatch,
 * any spelling the writer would not produce (whitespace, key order,
 * a number std::to_chars would spell otherwise), a range outside
 * [0, codes_total], out-of-range or non-monotone codes, negative,
 * shrinking or over-count `duplicates_after`, and counter-invariant
 * violations — all as
 * classified FatalError, never an unclassified throw. Whether the
 * range is the spec's cut is the merge's check.
 */
ShardRecords parseShardRecords(const std::string &text);

/** Atomic (write-temp-then-rename) save of one shard file. */
void saveShardRecordsFile(const ShardRecords &shard,
                          const std::string &path);

/** Load + parse one shard file; a missing or short-read file is a
 *  classified error naming the path. */
ShardRecords loadShardRecordsFile(const std::string &path);

/** Eval-side knobs for the merge's elaboration pass (the knobs that
 *  never change the ranking, so they live outside ShardConfig). */
struct MergeEvalOptions
{
    std::size_t threads = 0; //!< decode and elaboration workers (0 = all CPUs)
    std::int64_t stepBudget = 0;
    std::int64_t timeBudgetMillis = 0;
    bool retryWallClockTimeout = false;
    bool isolateFailures = true;
};

/**
 * Fold N shard files into the single-process ranking: validate that
 * the shards form an exact partition of the code space under one
 * config, cut where this spec's CandidateDecoder::shardRange cuts it
 * (any overlap, gap, moved cut, duplicate index, or config mismatch is
 * a classified error), replay the global consuming walk (re-decode each
 * code, signature dedup, maxPes prune, analytic top-K heap, `enumLimit`
 * stop — in code order, so shuffled input-file order cannot change
 * anything), then elaborate the survivors through `evaluateAndRank`.
 * The per-record decode runs on `eval.threads` workers over
 * code-ordered chunks; the dedup, heap and stop fold serially, so the
 * first bad record in code order raises the same error at any thread
 * count and nothing past the stop is checked. A walked code that is not
 * an orbit-canonical survivor, a code that repeats a signature its own
 * shard already yielded, a shard's scan counters that disagree with the
 * closed-form canonical or feasible code count they cover
 * (CandidateDecoder::canonicalBelow, feasibleBelow), and a record whose
 * derived rejected count is negative, shrinks along its shard or
 * exceeds the shard's are classified errors. The returned candidates
 * and `stats` match a single-process `exploreDataflows` run bit-for-bit
 * (timings excepted).
 */
std::vector<DseCandidate> mergeShardRecords(
        std::vector<ShardRecords> shards,
        const func::FunctionalSpec &functional, const IntVec &bounds,
        const MergeEvalOptions &eval,
        const model::AreaParams &area_params,
        const model::TimingParams &timing_params, DseStats *stats);

/** Deterministic corruption modes for the gauntlet tests and the
 *  records fuzz domain (mirrors serve::SnapshotCorruption). */
enum class RecordsCorruption
{
    TruncateTail,    //!< cut the document in half
    FlipByte,        //!< damage one payload digit (parses; checksum fails)
    VersionBump,     //!< claim an unsupported version
    ChecksumClobber, //!< damage the stored checksum itself
    GarbageHeader,   //!< prepend non-JSON bytes
};

/** Apply one corruption mode to a serialized shard document. */
std::string corruptShardRecords(std::string text, RecordsCorruption mode);

} // namespace stellar::accel

#endif // STELLAR_ACCEL_RECORDS_HPP
