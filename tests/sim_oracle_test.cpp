/**
 * @file
 * Differential oracles for the simulator hot paths.
 *
 * The DMA transfer loop keeps its in-flight and pending-pointer queues as
 * ring FIFOs, reads streamed bursts through an accessor and replays a
 * stream's repeating waves whole periods at a time; the merger counts
 * each merge tree's row lengths from one pass over the partials;
 * OuterSPACE reuses its scatter's transfer for the gather. Each rests on
 * an ordering, counting or shift-invariance argument, so the map-, scan-,
 * round-walk and two-transfer implementations they replaced live on
 * here, copied verbatim (all but the round walk minus their watchdog and
 * fault-injection hooks), and every result is compared exactly on seeded
 * random inputs and edge shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/dram.hpp"
#include "sim/balance.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/suitesparse.hpp"
#include "testkit/oracles.hpp"
#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{
namespace
{

// ---------------------------------------------------------------------
// Transfer oracle: the priority-queue DRAM and the vector-scan DMA loop

/** DramModel with its in-flight completions in a priority queue. */
class OracleDram
{
  public:
    explicit OracleDram(DramConfig config) : config_(config) {}

    const DramConfig &config() const { return config_; }

    std::int64_t
    outstanding(std::int64_t now) const
    {
        while (!inflight_.empty() && inflight_.top() <= now)
            inflight_.pop();
        return std::int64_t(inflight_.size());
    }

    bool
    canAccept(std::int64_t now) const
    {
        return outstanding(now) < config_.maxOutstanding;
    }

    std::int64_t
    issue(std::int64_t now, std::int64_t bytes)
    {
        require(bytes > 0, "DRAM request must move at least one byte");
        std::int64_t charged = std::max(bytes, config_.minBurstBytes);
        std::int64_t start = std::max(now, bwCursor_);
        std::int64_t occupancy = (charged + config_.bytesPerCycle - 1) /
                                 config_.bytesPerCycle;
        bwCursor_ = start + occupancy;
        bytesTransferred_ += bytes;
        std::int64_t completion = bwCursor_ + config_.latency;
        inflight_.push(completion);
        return completion;
    }

    std::int64_t bytesTransferred() const { return bytesTransferred_; }
    std::int64_t bandwidthCursor() const { return bwCursor_; }

  private:
    DramConfig config_;
    std::int64_t bwCursor_ = 0;
    std::int64_t bytesTransferred_ = 0;
    mutable std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                                std::greater<>> inflight_;
};

TransferResult
oracleTransfer(const DmaConfig &dma, OracleDram &dram,
               const std::vector<TransferChunk> &chunks,
               std::int64_t start_cycle = 0)
{
    TransferResult result;
    std::int64_t now = start_cycle;

    // Chunks whose pointer load has been issued, keyed by the cycle the
    // pointer value arrives.
    struct PendingData
    {
        std::int64_t readyAt;
        std::int64_t bytes;
    };
    std::vector<PendingData> pending;
    std::size_t next_chunk = 0;
    std::int64_t last_completion = start_cycle;

    auto all_done = [&]() {
        return next_chunk >= chunks.size() && pending.empty();
    };

    while (!all_done()) {
        int issued_this_cycle = 0;
        bool stalled_on_pointer = false;
        while (issued_this_cycle < dma.reqsPerCycle) {
            if (!dram.canAccept(now))
                break;
            // Prefer dependent data requests whose pointers have arrived.
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it)
                if (it->readyAt <= now &&
                        (ready == pending.end() ||
                         it->readyAt < ready->readyAt)) {
                    ready = it;
                }
            if (ready != pending.end()) {
                std::int64_t done = dram.issue(now, ready->bytes);
                last_completion = std::max(last_completion, done);
                result.requests++;
                result.bytes += ready->bytes;
                pending.erase(ready);
                issued_this_cycle++;
                continue;
            }
            if (next_chunk < chunks.size()) {
                if (chunks[next_chunk].pointerChased &&
                        std::int64_t(pending.size()) >=
                                dma.pointerContexts) {
                    // All pointer contexts are occupied: stall until a
                    // pointer returns and its data request issues.
                    stalled_on_pointer = true;
                    break;
                }
                const auto &chunk = chunks[next_chunk++];
                if (chunk.pointerChased) {
                    // Load the 8-byte pointer first; the data request
                    // becomes issueable when the pointer returns.
                    std::int64_t ptr_done = dram.issue(now, 8);
                    result.requests++;
                    result.bytes += 8;
                    pending.push_back(PendingData{ptr_done, chunk.bytes});
                } else {
                    std::int64_t done = dram.issue(now, chunk.bytes);
                    last_completion = std::max(last_completion, done);
                    result.requests++;
                    result.bytes += chunk.bytes;
                }
                issued_this_cycle++;
                continue;
            }
            // Nothing issueable: waiting on pointer returns.
            if (!pending.empty())
                stalled_on_pointer = true;
            break;
        }
        if (stalled_on_pointer)
            result.pointerStallCycles++;
        now++;
        // Fast-forward across long waits so the loop stays cheap.
        if (issued_this_cycle == 0 && !all_done()) {
            std::int64_t skip_to = now;
            if (!pending.empty()) {
                std::int64_t earliest = pending.front().readyAt;
                for (const auto &p : pending)
                    earliest = std::min(earliest, p.readyAt);
                skip_to = std::max(skip_to, std::min(earliest,
                                                     last_completion));
            } else {
                skip_to = std::max(skip_to, dram.bandwidthCursor());
            }
            if (skip_to > now) {
                result.pointerStallCycles +=
                        pending.empty() ? 0 : skip_to - now;
                now = skip_to;
            }
        }
    }
    result.cycles = std::max(last_completion, now) - start_cycle;
    return result;
}

/** The burst chunks the pre-accessor simulateStream built. */
std::vector<TransferChunk>
streamChunks(std::int64_t bytes, std::int64_t burst)
{
    std::vector<TransferChunk> chunks;
    for (std::int64_t off = 0; off < bytes; off += burst) {
        TransferChunk chunk;
        chunk.bytes = std::min(burst, bytes - off);
        chunks.push_back(chunk);
    }
    return chunks;
}

void
expectSameTransfer(const TransferResult &got, const TransferResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.pointerStallCycles, want.pointerStallCycles);
}

std::vector<TransferChunk>
randomChunks(Rng &rng, double pointer_share)
{
    std::vector<TransferChunk> chunks(std::size_t(rng.nextRange(0, 400)));
    for (auto &chunk : chunks) {
        chunk.bytes = rng.nextBool(0.2) ? rng.nextRange(1, 64)
                                        : rng.nextRange(65, 4000);
        chunk.pointerChased = rng.nextBool(pointer_share);
    }
    return chunks;
}

TEST(TransferOracle, FifoQueuesMatchScanAndHeapOnRandomChunks)
{
    Rng rng(15);
    int transfers = 0;
    for (int rate : {1, 2, 4, 16}) {
        const DmaConfig dma = DmaConfig::withRate(rate);
        for (double pointer_share : {0.0, 0.3, 0.8, 1.0}) {
            for (int trial = 0; trial < 6; trial++) {
                DramConfig config;
                config.latency = rng.nextRange(1, 200);
                config.bytesPerCycle = rng.nextRange(8, 64);
                config.maxOutstanding = rng.nextRange(1, 96);
                config.minBurstBytes = rng.nextRange(1, 128);
                // Several transfers back to back on one model, each
                // starting where the last one ended or later, as
                // OuterSPACE's phases do.
                DramModel dram(config);
                OracleDram oracle(config);
                std::int64_t start = rng.nextRange(0, 5000);
                for (int leg = 0; leg < 3; leg++) {
                    SCOPED_TRACE("rate " + std::to_string(rate) +
                                 ", pointer share " +
                                 std::to_string(pointer_share) +
                                 ", trial " + std::to_string(trial) +
                                 ", leg " + std::to_string(leg));
                    auto chunks = randomChunks(rng, pointer_share);
                    auto want = oracleTransfer(dma, oracle, chunks, start);
                    auto got = simulateTransfer(dma, dram, chunks, start);
                    expectSameTransfer(got, want);
                    EXPECT_EQ(dram.bytesTransferred(),
                              oracle.bytesTransferred());
                    EXPECT_EQ(dram.bandwidthCursor(),
                              oracle.bandwidthCursor());
                    EXPECT_EQ(dram.outstanding(start),
                              oracle.outstanding(start));
                    start += want.cycles + rng.nextRange(0, 300);
                    transfers++;
                }
            }
        }
    }
    EXPECT_EQ(transfers, 4 * 4 * 6 * 3);
}

/** A DRAM config drawn from ranges that cover every field's edges. */
DramConfig
randomDram(Rng &rng)
{
    DramConfig config;
    config.latency = rng.nextRange(0, 200);
    config.bytesPerCycle = rng.nextRange(1, 64);
    config.maxOutstanding = rng.nextRange(1, 96);
    config.minBurstBytes = rng.nextRange(1, 128);
    return config;
}

/**
 * simulateStream against the same bursts spelled out as chunks, through
 * simulateTransfer and through the heap-and-scan oracle: the results,
 * and the DRAM each leaves behind. The DRAMs are compared by their
 * cursor, bytes and in-flight counts after the stream, and then by a
 * second transfer issued into the stream's tail, which sees every
 * completion still in flight.
 */
void
expectStreamMatchesChunks(const DmaConfig &dma, const DramConfig &config,
                          std::int64_t bytes, std::int64_t start, Rng &rng)
{
    const auto chunks = streamChunks(bytes, config.minBurstBytes);
    DramModel streamed(config), explicit_chunks(config);
    OracleDram oracle(config);
    auto got = simulateStream(dma, streamed, bytes, start);
    auto via_chunks = simulateTransfer(dma, explicit_chunks, chunks, start);
    auto want = oracleTransfer(dma, oracle, chunks, start);
    expectSameTransfer(got, via_chunks);
    expectSameTransfer(got, want);
    EXPECT_EQ(got.requests, std::int64_t(chunks.size()));
    EXPECT_EQ(streamed.bandwidthCursor(), oracle.bandwidthCursor());
    EXPECT_EQ(streamed.bytesTransferred(), oracle.bytesTransferred());

    // Both models drop completions as the asked cycle passes them, so
    // the tail runs on copies and the counts are asked in cycle order.
    DramModel streamed_tail = streamed;
    OracleDram oracle_tail = oracle;
    const std::int64_t end = start + want.cycles;
    std::vector<std::int64_t> cycles = {start, (start + end) / 2,
                                        end - config.latency, end - 1, end};
    std::sort(cycles.begin(), cycles.end());
    for (std::int64_t at : cycles) {
        EXPECT_EQ(streamed.outstanding(at), oracle.outstanding(at))
                << "at cycle " << at;
    }
    const auto tail = randomChunks(rng, 0.3);
    const std::int64_t tail_start =
            std::max(start, end - rng.nextRange(0, config.latency + 64));
    expectSameTransfer(
            simulateTransfer(dma, streamed_tail, tail, tail_start),
            oracleTransfer(dma, oracle_tail, tail, tail_start));
    EXPECT_EQ(streamed_tail.bandwidthCursor(), oracle_tail.bandwidthCursor());
    EXPECT_EQ(streamed_tail.bytesTransferred(),
              oracle_tail.bytesTransferred());
}

TEST(TransferOracle, StreamEqualsExplicitBurstChunks)
{
    Rng rng(26);
    for (int rate : {1, 16}) {
        const DmaConfig dma = DmaConfig::withRate(rate);
        for (std::int64_t bytes :
                {std::int64_t(0), std::int64_t(1), std::int64_t(63),
                 std::int64_t(64), std::int64_t(65),
                 std::int64_t(1000007)}) {
            for (std::int64_t start : {std::int64_t(0), std::int64_t(777)}) {
                SCOPED_TRACE("rate " + std::to_string(rate) + ", " +
                             std::to_string(bytes) + " bytes from " +
                             std::to_string(start));
                expectStreamMatchesChunks(dma, DramConfig(), bytes, start,
                                          rng);
            }
        }
    }
}

TEST(TransferOracle, StreamEqualsExplicitBurstChunksOnRandomDrams)
{
    // The stream replays whole periods once the DRAM's relative state
    // repeats; the oracle steps every wave. Streams up to 300 kB in
    // bursts of 1-128 B run from a few waves to tens of thousands, so
    // the grid covers streams too short to replay, transients and
    // periods of every length, and the last short burst.
    Rng rng(2026);
    for (int trial = 0; trial < 400; trial++) {
        const DmaConfig dma = DmaConfig::withRate(int(rng.nextRange(1, 16)));
        const DramConfig config = randomDram(rng);
        const std::int64_t bytes = rng.nextBool(0.1)
                                           ? rng.nextRange(0, 300)
                                           : rng.nextRange(0, 300000);
        const std::int64_t start = rng.nextBool(0.5) ? 0 : 777;
        SCOPED_TRACE("trial " + std::to_string(trial) + ": rate " +
                     std::to_string(dma.reqsPerCycle) + ", latency " +
                     std::to_string(config.latency) + ", " +
                     std::to_string(config.bytesPerCycle) +
                     " B/cycle, cap " +
                     std::to_string(config.maxOutstanding) + ", burst " +
                     std::to_string(config.minBurstBytes) + ", " +
                     std::to_string(bytes) + " bytes from " +
                     std::to_string(start));
        expectStreamMatchesChunks(dma, config, bytes, start, rng);
    }
}

TEST(TransferOracle, StreamOnABusyDramEqualsExplicitBurstChunks)
{
    // A stream issued into another transfer's tail starts with requests
    // in flight and bandwidth taken; its waves repeat only once those
    // drain.
    Rng rng(77);
    for (int trial = 0; trial < 60; trial++) {
        const DmaConfig dma = DmaConfig::withRate(int(rng.nextRange(1, 16)));
        const DramConfig config = randomDram(rng);
        DramModel dram(config);
        OracleDram oracle(config);
        const auto head = randomChunks(rng, 0.5);
        const auto first = oracleTransfer(dma, oracle, head, 0);
        simulateTransfer(dma, dram, head, 0);
        const std::int64_t start = rng.nextRange(0, first.cycles);
        const std::int64_t bytes = rng.nextRange(0, 200000);
        SCOPED_TRACE("trial " + std::to_string(trial));
        const auto want = oracleTransfer(
                dma, oracle, streamChunks(bytes, config.minBurstBytes),
                start);
        expectSameTransfer(simulateStream(dma, dram, bytes, start), want);
        EXPECT_EQ(dram.bandwidthCursor(), oracle.bandwidthCursor());
        EXPECT_EQ(dram.bytesTransferred(), oracle.bytesTransferred());
        const std::int64_t last = start + want.cycles - 1;
        EXPECT_EQ(dram.outstanding(last), oracle.outstanding(last));
    }
}

TEST(TransferOracle, RunsEqualSpelledOutChunks)
{
    Rng rng(31);
    for (int trial = 0; trial < 40; trial++) {
        const DmaConfig dma = DmaConfig::withRate(int(rng.nextRange(1, 16)));
        const DramConfig config = randomDram(rng);
        std::vector<TransferRun> runs(std::size_t(rng.nextRange(0, 40)));
        std::vector<TransferChunk> chunks;
        for (auto &run : runs) {
            run.chunk.bytes = rng.nextRange(1, 2000);
            run.chunk.pointerChased = rng.nextBool(0.6);
            run.count = rng.nextBool(0.2) ? 0 : rng.nextRange(1, 30);
            chunks.insert(chunks.end(), std::size_t(run.count), run.chunk);
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        DramModel by_runs(config), by_chunks(config);
        const std::int64_t start = rng.nextRange(0, 1000);
        expectSameTransfer(simulateTransfer(dma, by_runs, runs, start),
                           simulateTransfer(dma, by_chunks, chunks, start));
        EXPECT_EQ(by_runs.bandwidthCursor(), by_chunks.bandwidthCursor());
        EXPECT_EQ(by_runs.bytesTransferred(), by_chunks.bytesTransferred());
    }
}

// ---------------------------------------------------------------------
// Merger oracle: the round walk

/**
 * The merge schedules as they were while every round materialized its
 * merged rows into flat buffers, copied verbatim with their watchdog
 * and fault-injection hooks, so timeouts and error texts compare too.
 */
namespace roundwalk
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

} // namespace roundwalk

// ---------------------------------------------------------------------
// Merger oracle: the std::map row tables

std::map<std::int64_t, std::int64_t>
oracleMergedRowLengths(const sparse::PartialMatrix &a,
                       const sparse::PartialMatrix &b)
{
    // The merged fiber length is bounded by the sum of the inputs; exact
    // lengths require coordinate comparison, so merge coordinate sets.
    std::map<std::int64_t, const sparse::Fiber *> a_rows, b_rows;
    for (std::size_t f = 0; f < a.rowIds.size(); f++)
        a_rows[a.rowIds[f]] = &a.rowFibers[f];
    for (std::size_t f = 0; f < b.rowIds.size(); f++)
        b_rows[b.rowIds[f]] = &b.rowFibers[f];

    std::map<std::int64_t, std::int64_t> lengths;
    for (const auto &[row, fiber] : a_rows) {
        auto it = b_rows.find(row);
        if (it == b_rows.end()) {
            lengths[row] = fiber->size();
        } else {
            lengths[row] =
                    sparse::mergeFibers(*fiber, *it->second).size();
        }
    }
    for (const auto &[row, fiber] : b_rows)
        if (!a_rows.count(row))
            lengths[row] = fiber->size();
    return lengths;
}

MergerResult
oracleRowPartitioned(const MergerConfig &config,
                     const sparse::PartialMatrix &a,
                     const sparse::PartialMatrix &b)
{
    auto lengths = oracleMergedRowLengths(a, b);
    MergerResult result;
    std::vector<std::int64_t> lane_busy(std::size_t(config.lanes), 0);
    for (const auto &[row, len] : lengths) {
        result.mergedElements += len;
        auto lane = std::min_element(lane_busy.begin(), lane_busy.end());
        *lane += len + config.laneStartup;
    }
    result.cycles = *std::max_element(lane_busy.begin(), lane_busy.end());
    result.cycles = std::max<std::int64_t>(result.cycles, 1);
    return result;
}

MergerResult
oracleFlattened(const MergerConfig &config, const sparse::PartialMatrix &a,
                const sparse::PartialMatrix &b)
{
    auto lengths = oracleMergedRowLengths(a, b);
    MergerResult result;
    for (const auto &[row, len] : lengths)
        result.mergedElements += len;
    result.cycles = (result.mergedElements + config.throughput - 1) /
                    config.throughput;
    result.cycles = std::max<std::int64_t>(result.cycles, 1);
    return result;
}

sparse::PartialMatrix
oracleMergePartialPair(const sparse::PartialMatrix &a,
                       const sparse::PartialMatrix &b)
{
    std::map<std::int64_t, sparse::Fiber> rows;
    for (std::size_t f = 0; f < a.rowIds.size(); f++)
        rows[a.rowIds[f]] = a.rowFibers[f];
    for (std::size_t f = 0; f < b.rowIds.size(); f++) {
        auto it = rows.find(b.rowIds[f]);
        if (it == rows.end())
            rows[b.rowIds[f]] = b.rowFibers[f];
        else
            it->second = sparse::mergeFibers(it->second, b.rowFibers[f]);
    }
    sparse::PartialMatrix merged;
    for (auto &[row, fiber] : rows) {
        merged.rowIds.push_back(row);
        merged.rowFibers.push_back(std::move(fiber));
    }
    return merged;
}

MergerResult
oracleMergeSchedule(const MergerConfig &config, MergerKind kind,
                    std::vector<sparse::PartialMatrix> partials)
{
    MergerResult total;
    if (partials.size() <= 1)
        return total;
    while (partials.size() > 1) {
        std::vector<sparse::PartialMatrix> next;
        for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
            MergerResult pair =
                    kind == MergerKind::RowPartitioned
                            ? oracleRowPartitioned(config, partials[i],
                                                   partials[i + 1])
                            : oracleFlattened(config, partials[i],
                                              partials[i + 1]);
            total.cycles += pair.cycles;
            total.mergedElements += pair.mergedElements;
            next.push_back(
                    oracleMergePartialPair(partials[i], partials[i + 1]));
        }
        if (partials.size() % 2 == 1)
            next.push_back(std::move(partials.back()));
        partials = std::move(next);
    }
    return total;
}

MergerResult
oracleHierarchicalMerge(const MergerConfig &config,
                        const std::vector<sparse::PartialMatrix> &partials,
                        int ways)
{
    MergerResult total;
    if (partials.empty())
        return total;
    int levels = 0;
    for (int span = 1; span < ways; span *= 2)
        levels++;
    std::size_t group_start = 0;
    while (group_start < partials.size()) {
        std::size_t group_end =
                std::min(group_start + std::size_t(ways), partials.size());
        sparse::PartialMatrix merged = partials[group_start];
        for (std::size_t i = group_start + 1; i < group_end; i++)
            merged = oracleMergePartialPair(merged, partials[i]);
        std::int64_t elements = merged.totalElements();
        total.mergedElements += elements;
        total.cycles += (elements + config.throughput - 1) /
                        config.throughput +
                        levels; // pipeline fill
        group_start = group_end;
    }
    return total;
}

/** A partial over rows [0, rows) with sorted, distinct rowIds; some
 *  fibers are empty. */
sparse::PartialMatrix
randomPartial(Rng &rng, std::int64_t rows)
{
    sparse::PartialMatrix partial;
    for (std::int64_t r = 0; r < rows; r++) {
        if (!rng.nextBool(0.35))
            continue;
        sparse::Fiber fiber;
        const std::int64_t len = rng.nextBool(0.1) ? 0 : rng.nextRange(1, 12);
        for (std::int64_t c = 0; c < 60 && fiber.size() < len; c++)
            if (rng.nextBool(0.3)) {
                fiber.coords.push_back(c);
                fiber.values.push_back(rng.nextDouble() - 0.5);
            }
        partial.rowIds.push_back(r);
        partial.rowFibers.push_back(std::move(fiber));
    }
    return partial;
}

void
expectSameResult(const MergerResult &got, const MergerResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.mergedElements, want.mergedElements);
}

void
expectSamePartial(const sparse::PartialMatrix &got,
                  const sparse::PartialMatrix &want)
{
    ASSERT_EQ(got.rowIds, want.rowIds);
    ASSERT_EQ(got.rowFibers.size(), want.rowFibers.size());
    for (std::size_t f = 0; f < got.rowFibers.size(); f++) {
        EXPECT_EQ(got.rowFibers[f].coords, want.rowFibers[f].coords);
        // Bit-exact: both sides sum equal coordinates in the same order.
        EXPECT_EQ(got.rowFibers[f].values, want.rowFibers[f].values);
    }
}

TEST(MergerOracle, PairFunctionsMatchMapMerge)
{
    Rng rng(150);
    MergerConfig config;
    config.lanes = 4; // few lanes, so lane choice shapes the cycles
    for (int trial = 0; trial < 200; trial++) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::int64_t rows = rng.nextRange(0, 30);
        auto a = randomPartial(rng, rows);
        auto b = randomPartial(rng, rng.nextRange(0, 30));
        expectSamePartial(testkit::mergePartialPair(a, b),
                          oracleMergePartialPair(a, b));
        expectSameResult(mergePairRowPartitioned(config, a, b),
                         oracleRowPartitioned(config, a, b));
        expectSameResult(mergePairFlattened(config, a, b),
                         oracleFlattened(config, a, b));
    }
}

TEST(MergerOracle, SchedulesMatchMapMerge)
{
    Rng rng(151);
    for (std::size_t count : {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33}) {
        for (int trial = 0; trial < 4; trial++) {
            SCOPED_TRACE(std::to_string(count) + " partials, trial " +
                         std::to_string(trial));
            MergerConfig config;
            config.lanes = int(rng.nextRange(1, 40));
            config.throughput = int(rng.nextRange(1, 20));
            config.laneStartup = int(rng.nextRange(0, 3));
            std::vector<sparse::PartialMatrix> partials;
            for (std::size_t p = 0; p < count; p++)
                partials.push_back(randomPartial(rng, rng.nextRange(0, 40)));
            for (auto kind :
                    {MergerKind::RowPartitioned, MergerKind::Flattened}) {
                expectSameResult(runMergeSchedule(config, kind, partials),
                                 oracleMergeSchedule(config, kind, partials));
            }
            for (int ways : {2, 4, 16}) {
                SCOPED_TRACE(std::to_string(ways) + " ways");
                expectSameResult(
                        runHierarchicalMerge(config, partials, ways),
                        oracleHierarchicalMerge(config, partials, ways));
            }
        }
    }
}

/** A partial holding `coords` in each of the rows `rows`. */
sparse::PartialMatrix
uniformPartial(const std::vector<std::int64_t> &rows,
               const std::vector<std::int64_t> &coords)
{
    sparse::PartialMatrix partial;
    for (auto row : rows) {
        partial.rowIds.push_back(row);
        partial.rowFibers.push_back(sparse::Fiber{
                coords, std::vector<double>(coords.size(), 1.0)});
    }
    return partial;
}

/** Every merger entry point against its oracle, at 1, 2, 3 and 32
 *  lanes and two throughputs. */
void
expectMergersMatch(const std::vector<sparse::PartialMatrix> &partials)
{
    for (int lanes : {1, 2, 3, 32}) {
        MergerConfig config;
        config.lanes = lanes;
        config.throughput = lanes == 3 ? 3 : 16;
        SCOPED_TRACE(std::to_string(partials.size()) + " partials, " +
                     std::to_string(lanes) + " lanes");
        if (partials.size() == 2) {
            expectSameResult(
                    mergePairRowPartitioned(config, partials[0],
                                            partials[1]),
                    oracleRowPartitioned(config, partials[0], partials[1]));
            expectSameResult(
                    mergePairFlattened(config, partials[0], partials[1]),
                    oracleFlattened(config, partials[0], partials[1]));
        }
        for (auto kind : {MergerKind::RowPartitioned, MergerKind::Flattened})
            expectSameResult(runMergeSchedule(config, kind, partials),
                             oracleMergeSchedule(config, kind, partials));
        for (int ways : {2, 3, 4, 8})
            expectSameResult(
                    runHierarchicalMerge(config, partials, ways),
                    oracleHierarchicalMerge(config, partials, ways));
    }
}

TEST(MergerOracle, EdgeShapedPairsMatchMapMerge)
{
    const sparse::PartialMatrix empty;
    const auto evens = uniformPartial({0, 2, 4, 6}, {1, 5, 9});
    const auto odds = uniformPartial({1, 3, 5}, {0, 2});
    const auto even_coords = uniformPartial({0, 1, 2}, {0, 2, 4, 6});
    const auto odd_coords = uniformPartial({0, 1, 2}, {1, 3, 5, 7});
    // Five equal-length rows: fewer rows than 32 lanes, more than 1-3.
    const auto equal_a = uniformPartial({0, 1, 2, 3, 4}, {0, 1, 2, 3});
    const auto equal_b = uniformPartial({0, 1, 2, 3, 4}, {4, 5, 6, 7});
    sparse::PartialMatrix mixed = uniformPartial({1, 4, 9}, {3});
    mixed.rowFibers[1] = sparse::Fiber{{}, {}}; // an empty fiber

    const std::vector<std::pair<sparse::PartialMatrix,
                                sparse::PartialMatrix>> pairs = {
            {empty, empty},
            {empty, evens},
            {odds, empty},
            {evens, odds},             // every row on one side only
            {evens, evens},            // fully overlapping fibers
            {even_coords, odd_coords}, // disjoint fibers in shared rows
            {equal_a, equal_b},
            {equal_a, equal_a},
            {mixed, evens},            // some rows shared, some not
    };
    for (std::size_t p = 0; p < pairs.size(); p++) {
        SCOPED_TRACE("pair " + std::to_string(p));
        expectMergersMatch({pairs[p].first, pairs[p].second});
    }
}

TEST(MergerOracle, EdgeShapedListsMatchMapMerge)
{
    const sparse::PartialMatrix empty;
    const auto a = uniformPartial({0, 2, 4}, {1, 5, 9});
    const auto b = uniformPartial({1, 2, 3}, {5, 6});
    const auto c = uniformPartial({4}, {0, 1, 2, 3, 4, 5, 6, 7, 8});
    const std::vector<std::vector<sparse::PartialMatrix>> lists = {
            {},
            {a},
            {empty},
            {a, b, c},                   // odd count
            {a, empty, b, c, empty},     // odd count with empty partials
            {empty, empty, empty},
            {a, a, a, a, a, a, a},       // fully overlapping, odd count
            {a, b, c, a, b, c, a, b},
    };
    for (std::size_t l = 0; l < lists.size(); l++) {
        SCOPED_TRACE("list " + std::to_string(l));
        expectMergersMatch(lists[l]);
    }
}

/** The what() of the exception `fn` throws, which must be an `E`. */
template <typename E, typename Fn>
std::string
errorText(Fn fn)
{
    try {
        fn();
    } catch (const E &err) {
        return err.what();
    }
    return "no error";
}

TEST(MergerOracle, ErrorTextsArePinned)
{
    const auto sorted = uniformPartial({1, 4}, {0, 2});
    const auto unsorted_rows = uniformPartial({3, 2}, {0, 2});
    const MergerConfig config;
    EXPECT_EQ(errorText<FatalError>([&] {
                  runMergeSchedule(config, MergerKind::Flattened,
                                   {sorted, sorted, sorted, unsorted_rows});
              }),
              "stellar fatal: merge round with 4 partial matrices, pair at "
              "2: partial-matrix rowIds must be strictly increasing, but "
              "row 2 follows row 3");
    EXPECT_EQ(errorText<FatalError>([&] {
                  mergePairRowPartitioned(config, unsorted_rows, sorted);
              }),
              "stellar fatal: merged pair: partial-matrix rowIds must be "
              "strictly increasing, but row 2 follows row 3");
    EXPECT_EQ(errorText<FatalError>([&] {
                  runHierarchicalMerge(config, {sorted, unsorted_rows}, 4);
              }),
              "stellar fatal: hierarchical merge group at 0, partial 1: "
              "partial-matrix rowIds must be strictly increasing, but row 2 "
              "follows row 3");

    // Coords out of order in a row both sides hold: the merged row does
    // not strictly increase. A repeated coordinate counts as unsorted.
    const auto unsorted_coords = uniformPartial({4}, {7, 3});
    const auto repeated_coords = uniformPartial({1}, {2, 2});
    EXPECT_EQ(errorText<PanicError>([&] {
                  mergePairFlattened(config, sorted, unsorted_coords);
              }),
              "stellar panic: merged pair: row 4 of both partials must "
              "have strictly increasing coords");
    EXPECT_EQ(errorText<PanicError>([&] {
                  runMergeSchedule(config, MergerKind::RowPartitioned,
                                   {repeated_coords, sorted});
              }),
              "stellar panic: merge round with 2 partial matrices, pair at "
              "0: row 1 of both partials must have strictly increasing "
              "coords");
}

/** How one merger call ended: its result, or its exception's dynamic
 *  type and text. */
struct Outcome
{
    MergerResult result;
    std::string error;

    bool operator==(const Outcome &) const = default;
};

bool
operator==(const MergerResult &a, const MergerResult &b)
{
    return a.cycles == b.cycles && a.mergedElements == b.mergedElements;
}

template <typename Fn>
Outcome
outcomeOf(Fn fn)
{
    Outcome out;
    try {
        out.result = fn();
    } catch (const std::exception &err) {
        out.error = std::string(typeid(err).name()) + ": " + err.what();
    }
    return out;
}

/** `fn`'s outcome under a step budget of `budget` (0: none). */
template <typename Fn>
Outcome
outcomeWithin(std::int64_t budget, Fn fn)
{
    util::WatchdogScope scope("sim", budget);
    return outcomeOf(fn);
}

std::string
describe(const Outcome &o)
{
    return o.error.empty() ? std::to_string(o.result.cycles) + " cycles, " +
                                     std::to_string(o.result.mergedElements) +
                                     " elements"
                           : o.error;
}

/**
 * A list of `count` partials over a few dozen rows and coordinates
 * spread over the int64 range (negative ids included). Partials may be
 * empty, fibers may be empty, and each partial may hold a row no other
 * partial holds.
 */
std::vector<sparse::PartialMatrix>
randomSpreadList(Rng &rng, std::size_t count)
{
    const std::int64_t row_base = rng.nextRange(-(std::int64_t(1) << 50),
                                                std::int64_t(1) << 50);
    const std::int64_t row_stride = rng.nextRange(1, std::int64_t(1) << 30);
    const std::int64_t coord_base = rng.nextRange(
            -(std::int64_t(1) << 50), std::int64_t(1) << 50);
    const std::int64_t coord_stride = rng.nextRange(1, 1 << 20);
    const std::int64_t rows = rng.nextRange(1, 48);
    const std::int64_t coords = rng.nextRange(1, 40);
    const double row_density = 0.05 + 0.4 * rng.nextDouble();
    std::vector<sparse::PartialMatrix> partials(count);
    for (std::size_t p = 0; p < count; p++) {
        if (rng.nextBool(0.1))
            continue; // an empty partial
        auto &partial = partials[p];
        auto add_row = [&](std::int64_t id) {
            sparse::Fiber fiber;
            if (!rng.nextBool(0.1))
                for (std::int64_t c = 0; c < coords; c++)
                    if (rng.nextBool(0.25)) {
                        fiber.coords.push_back(coord_base +
                                               c * coord_stride);
                        fiber.values.push_back(1.0);
                    }
            partial.rowIds.push_back(id);
            partial.rowFibers.push_back(std::move(fiber));
        };
        for (std::int64_t r = 0; r < rows; r++)
            if (rng.nextBool(row_density))
                add_row(row_base + r * row_stride);
        if (rng.nextBool(0.2)) // a row only this partial holds
            add_row(row_base + (rows + std::int64_t(p)) * row_stride);
    }
    return partials;
}

enum class Injected
{
    RowDescent,
    RepeatedRow,
    RepeatedCoord,
    UnsortedShared,
    UnsortedAlone,
};

/**
 * Damage one random site of `partials` the way `kind` names; false
 * when the list has no such site. A descent swaps two neighbouring
 * rowIds, a repeated row copies one over the next, a repeated coord
 * doubles one, and an unsorted fiber swaps two neighbouring coords of a
 * row some other partial holds too (shared) or none does (alone).
 */
bool
inject(Rng &rng, std::vector<sparse::PartialMatrix> &partials,
       Injected kind)
{
    std::map<std::int64_t, int> holders;
    for (const auto &partial : partials)
        for (auto row : partial.rowIds)
            holders[row]++;
    std::vector<std::pair<std::size_t, std::size_t>> sites;
    for (std::size_t p = 0; p < partials.size(); p++) {
        const auto &partial = partials[p];
        for (std::size_t f = 0; f < partial.rowIds.size(); f++) {
            const auto len = partial.rowFibers[f].coords.size();
            const int held = holders[partial.rowIds[f]];
            const bool site =
                    kind == Injected::RowDescent ||
                                    kind == Injected::RepeatedRow
                            ? f > 0
                    : kind == Injected::RepeatedCoord ? len >= 1
                    : kind == Injected::UnsortedShared
                            ? len >= 2 && held >= 2
                            : len >= 2 && held == 1;
            if (site)
                sites.emplace_back(p, f);
        }
    }
    if (sites.empty())
        return false;
    const auto [p, f] = sites[rng.nextBounded(sites.size())];
    auto &partial = partials[p];
    auto &fiber = partial.rowFibers[f];
    const std::size_t at = fiber.coords.empty()
                                   ? 0
                                   : rng.nextBounded(fiber.coords.size());
    switch (kind) {
    case Injected::RowDescent:
        std::swap(partial.rowIds[f - 1], partial.rowIds[f]);
        break;
    case Injected::RepeatedRow:
        partial.rowIds[f] = partial.rowIds[f - 1];
        break;
    case Injected::RepeatedCoord:
        fiber.coords.insert(fiber.coords.begin() + std::ptrdiff_t(at),
                            fiber.coords[at]);
        fiber.values.insert(fiber.values.begin() + std::ptrdiff_t(at), 1.0);
        break;
    case Injected::UnsortedShared:
    case Injected::UnsortedAlone: {
        const std::size_t i = std::min(at, fiber.coords.size() - 2);
        std::swap(fiber.coords[i], fiber.coords[i + 1]);
        break;
    }
    }
    return true;
}

/**
 * Every merger entry point against the round walk on `partials`: both
 * pairwise schedules and the hierarchical tree at six widths, and the
 * pair functions on the first two partials and two other drawn ones. With
 * `budgets`, also under every step budget up to one past the steps the
 * walk takes, so the timeout lands on the same step with the same text.
 * Returns how many entry points the walk raised an error from, with no
 * budget.
 */
int
expectCountedMatchesWalk(Rng &rng,
                         const std::vector<sparse::PartialMatrix> &partials,
                         const MergerConfig &config, bool budgets)
{
    std::vector<std::pair<std::string, std::function<MergerResult()>>>
            counted, walked;
    auto add = [&](std::string name, std::function<MergerResult()> mine,
                   std::function<MergerResult()> theirs) {
        counted.emplace_back(name, std::move(mine));
        walked.emplace_back(std::move(name), std::move(theirs));
    };
    for (auto kind : {MergerKind::RowPartitioned, MergerKind::Flattened})
        add(kind == MergerKind::RowPartitioned ? "row-partitioned schedule"
                                               : "flattened schedule",
            [&, kind] { return runMergeSchedule(config, kind, partials); },
            [&, kind] {
                return roundwalk::runMergeSchedule(config, kind, partials);
            });
    for (int ways : {2, 3, 4, 7, 16, 64})
        add(std::to_string(ways) + "-way tree",
            [&, ways] { return runHierarchicalMerge(config, partials, ways); },
            [&, ways] {
                return roundwalk::runHierarchicalMerge(config, partials,
                                                       ways);
            });
    if (partials.size() >= 2) {
        const std::size_t i = rng.nextBounded(partials.size());
        const std::size_t j =
                (i + 1 + rng.nextBounded(partials.size() - 1)) %
                partials.size();
        for (auto [a, b] : {std::pair<std::size_t, std::size_t>{0, 1},
                            std::pair<std::size_t, std::size_t>{i, j}}) {
            const auto &x = partials[a], &y = partials[b];
            add("row-partitioned pair " + std::to_string(a) + "," +
                        std::to_string(b),
                [&] { return mergePairRowPartitioned(config, x, y); },
                [&] {
                    return roundwalk::mergePairRowPartitioned(config, x, y);
                });
            add("flattened pair " + std::to_string(a) + "," +
                        std::to_string(b),
                [&] { return mergePairFlattened(config, x, y); },
                [&] { return roundwalk::mergePairFlattened(config, x, y); });
        }
    }
    int raised = 0;
    for (std::size_t e = 0; e < counted.size(); e++) {
        SCOPED_TRACE(counted[e].first);
        const Outcome want = outcomeOf(walked[e].second);
        raised += !want.error.empty();
        const Outcome got = outcomeOf(counted[e].second);
        EXPECT_EQ(got, want) << describe(got) << "\nwant " << describe(want);
        if (!budgets)
            continue;
        util::WatchdogScope counter("sim", 0);
        outcomeOf(walked[e].second);
        const std::int64_t steps = counter.watchdog().stepsExecuted();
        for (std::int64_t budget = 1; budget <= steps + 1; budget++) {
            SCOPED_TRACE("budget " + std::to_string(budget));
            const Outcome want_in = outcomeWithin(budget, walked[e].second);
            const Outcome got_in = outcomeWithin(budget, counted[e].second);
            EXPECT_EQ(got_in, want_in)
                    << describe(got_in) << "\nwant " << describe(want_in);
        }
    }
    return raised;
}

TEST(MergerOracle, CountedTreesMatchTheRoundWalk)
{
    Rng rng(152);
    std::vector<std::size_t> sizes = {2,  3,  4,   5,   6,   7,   9,
                                      13, 31, 33,  64,  97,  255, 513,
                                      1100};
    for (int extra = 0; extra < 30; extra++)
        sizes.push_back(std::size_t(rng.nextRange(2, 80)));
    // Damaged lists per kind, and the entry points that raised on them.
    std::map<int, std::pair<int, int>> damage;
    for (std::size_t t = 0; t < sizes.size(); t++) {
        const std::size_t count = sizes[t];
        SCOPED_TRACE("list " + std::to_string(t) + " of " +
                     std::to_string(count) + " partials");
        MergerConfig config;
        config.lanes = int(rng.nextRange(1, 40));
        config.throughput = int(rng.nextRange(1, 20));
        config.laneStartup = int(rng.nextRange(0, 3));
        auto partials = randomSpreadList(rng, count);
        // Walk every step budget on the short lists only.
        const bool budgets = count <= 40;
        expectCountedMatchesWalk(rng, partials, config, budgets);
        for (auto kind : {Injected::RowDescent, Injected::RepeatedRow,
                          Injected::RepeatedCoord, Injected::UnsortedShared,
                          Injected::UnsortedAlone}) {
            auto damaged = partials;
            if (!inject(rng, damaged, kind))
                continue;
            SCOPED_TRACE("defect " + std::to_string(int(kind)));
            damage[int(kind)].first++;
            damage[int(kind)].second +=
                    expectCountedMatchesWalk(rng, damaged, config, budgets);
        }
    }
    // Every kind was injected often, and all but a never-shared
    // unsorted row raised from some entry point.
    for (int kind = 0; kind < 5; kind++) {
        SCOPED_TRACE("defect " + std::to_string(kind));
        EXPECT_GE(damage[kind].first, 30);
        if (kind == int(Injected::UnsortedAlone))
            EXPECT_EQ(damage[kind].second, 0);
        else
            EXPECT_GE(damage[kind].second, damage[kind].first);
    }

    // The OuterSPACE suite's partials, as fig 18 merges them.
    for (const auto &profile : sparse::outerSpaceSuite()) {
        SCOPED_TRACE(profile.name);
        const auto matrix =
                sparse::synthesize(sparse::scaleProfile(profile, 1500), 1);
        const auto partials =
                sparse::outerProductPartials(sparse::csrToCsc(matrix), matrix);
        expectCountedMatchesWalk(rng, partials, MergerConfig(), false);
    }
}

// ---------------------------------------------------------------------
// OuterSPACE oracle: the gather simulated as a second transfer

/**
 * simulateOuterSpace as it was while the merge phase simulated its
 * gather again on a DRAM of its own, instead of reusing the scatter's
 * TransferResult, while it scattered a chunk list and counted
 * multiplies through spgemmMultiplies, and while its streams stepped
 * every wave (they are spelled out as burst chunks here).
 */
OuterSpaceResult
oracleOuterSpace(const OuterSpaceConfig &config, const sparse::CsrMatrix &a)
{
    OuterSpaceResult result;
    result.multiplies = sparse::spgemmMultiplies(a, a);

    // Column nonzero counts of A (the CSC view used by the outer product).
    std::vector<std::int64_t> col_nnz(std::size_t(a.cols()), 0);
    for (auto c : a.colIdx())
        col_nnz[std::size_t(c)]++;

    // Every nonzero A(i, k) produces one partial-sum fiber of length
    // rowNnz(k), stored as a scattered vector reached through a pointer.
    const std::int64_t elem_bytes = 12; // 8B value + 4B coordinate
    std::vector<TransferChunk> scatter;
    scatter.reserve(std::size_t(a.nnz()));
    for (std::int64_t k = 0; k < a.cols(); k++) {
        std::int64_t fiber_len = a.rowNnz(std::min(k, a.rows() - 1));
        if (fiber_len == 0 || col_nnz[std::size_t(k)] == 0)
            continue;
        for (std::int64_t f = 0; f < col_nnz[std::size_t(k)]; f++) {
            TransferChunk chunk;
            chunk.bytes = fiber_len * elem_bytes;
            chunk.pointerChased = true;
            scatter.push_back(chunk);
        }
    }

    // ---- Multiply phase ----
    DramModel multiply_dram(config.dram);
    // Stream A in twice (CSC for the left operand, CSR for the right).
    std::int64_t a_bytes = a.nnz() * 12 + (a.rows() + 1) * 8;
    auto a_read = simulateTransfer(
            config.dma, multiply_dram,
            streamChunks(2 * a_bytes, config.dram.minBurstBytes));
    // Scatter the partial vectors out (pointer-chased writes).
    auto scatter_out =
            simulateTransfer(config.dma, multiply_dram, scatter,
                             a_read.cycles);
    std::int64_t multiply_mem = a_read.cycles + scatter_out.cycles;
    // Compute side: columns of A are outer-product work items distributed
    // across the PE groups; imbalanced columns strand groups unless the
    // Listing 3-style balancer shifts work between waves (Fig 6).
    std::vector<std::int64_t> column_work;
    for (std::int64_t k = 0; k < a.cols(); k++) {
        std::int64_t products =
                col_nnz[std::size_t(k)] * a.rowNnz(std::min(k, a.rows() - 1));
        if (products > 0)
            column_work.push_back(
                    (products + config.multipliers / config.workGroups - 1) /
                    std::max(config.multipliers / config.workGroups, 1));
    }
    auto balance = simulateRowWaves(column_work, config.workGroups,
                                    config.loadBalanced);
    std::int64_t multiply_compute = balance.cycles;
    result.balancerShifts = balance.shiftsApplied;
    result.multiplyUtilization = balance.utilization;
    result.multiplyPhaseCycles = std::max(multiply_mem, multiply_compute);
    result.pointerRequests += std::int64_t(scatter.size());
    result.pointerStallCycles += scatter_out.pointerStallCycles;
    result.dramBytes += multiply_dram.bytesTransferred();

    // ---- Merge phase ----
    DramModel merge_dram(config.dram);
    // Gather the scattered partial vectors back (pointer-chased reads).
    auto gather = simulateTransfer(config.dma, merge_dram, scatter);
    // Write the final merged matrix out as a stream. Use the partial
    // element count as an upper bound on the result size.
    auto write_out = simulateTransfer(
            config.dma, merge_dram,
            streamChunks(result.multiplies * elem_bytes,
                         config.dram.minBurstBytes),
            gather.cycles);
    std::int64_t merge_mem = gather.cycles + write_out.cycles;
    // Merge lanes consume one element per lane per cycle; imbalanced
    // fibers leave some lanes idle (~20% on the matrices studied).
    std::int64_t merge_compute = std::int64_t(
            1.2 * double(result.multiplies) / double(config.mergeLanes));
    result.mergePhaseCycles = std::max(merge_mem, merge_compute);
    result.pointerRequests += std::int64_t(scatter.size());
    result.pointerStallCycles += gather.pointerStallCycles;
    result.dramBytes += merge_dram.bytesTransferred();

    result.cycles = result.multiplyPhaseCycles + result.mergePhaseCycles;
    return result;
}

void
expectSameOuterSpace(const OuterSpaceResult &got,
                     const OuterSpaceResult &want)
{
    EXPECT_EQ(got.multiplyPhaseCycles, want.multiplyPhaseCycles);
    EXPECT_EQ(got.mergePhaseCycles, want.mergePhaseCycles);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.multiplies, want.multiplies);
    EXPECT_EQ(got.dramBytes, want.dramBytes);
    EXPECT_EQ(got.pointerRequests, want.pointerRequests);
    EXPECT_EQ(got.pointerStallCycles, want.pointerStallCycles);
    EXPECT_EQ(got.balancerShifts, want.balancerShifts);
    // Bit-exact: the same arithmetic on the same inputs.
    EXPECT_EQ(got.multiplyUtilization, want.multiplyUtilization);
}

/**
 * The OuterSPACE suite at `nnz`, at DMA rates 1, 4 and 16, over four
 * DRAMs, balanced and not. The DRAMs span the shift argument's edges: a
 * zero latency (bandwidth cursor at the last completion) with one
 * request in flight, a long latency with deep queues, and the default
 * HBM with a short burst.
 */
void
expectSuiteMatchesTwoTransfers(std::int64_t nnz)
{
    std::vector<DramConfig> drams(4, OuterSpaceConfig().dram);
    drams[1].latency = 0;
    drams[1].bytesPerCycle = 8;
    drams[1].maxOutstanding = 1;
    drams[1].minBurstBytes = 32;
    drams[2].latency = 400;
    drams[2].bytesPerCycle = 128;
    drams[2].maxOutstanding = 256;
    drams[2].minBurstBytes = 128;
    drams[3].minBurstBytes = 16;
    int runs = 0;
    for (const auto &profile : sparse::outerSpaceSuite()) {
        const auto matrix =
                sparse::synthesize(sparse::scaleProfile(profile, nnz), 1);
        for (int rate : {1, 4, 16}) {
            for (std::size_t d = 0; d < drams.size(); d++) {
                for (bool balanced : {true, false}) {
                    SCOPED_TRACE(profile.name + " at " +
                                 std::to_string(nnz) + " nnz, rate " +
                                 std::to_string(rate) + ", dram " +
                                 std::to_string(d) +
                                 (balanced ? ", balanced" : ""));
                    OuterSpaceConfig config;
                    config.dma = DmaConfig::withRate(rate);
                    config.dram = drams[d];
                    config.loadBalanced = balanced;
                    expectSameOuterSpace(simulateOuterSpace(config, matrix),
                                         oracleOuterSpace(config, matrix));
                    runs++;
                }
            }
        }
    }
    EXPECT_EQ(runs, 18 * 3 * 4 * 2);
}

TEST(OuterSpaceOracle, OneTransferMatchesTwoOnSuiteAt1500Nnz)
{
    expectSuiteMatchesTwoTransfers(1500);
}

TEST(OuterSpaceOracle, OneTransferMatchesTwoOnSuiteAt6000Nnz)
{
    expectSuiteMatchesTwoTransfers(6000);
}

} // namespace
} // namespace stellar::sim
