/**
 * @file
 * Differential oracles for the simulator hot paths.
 *
 * The DMA transfer loop keeps its in-flight and pending-pointer queues as
 * ring FIFOs, reads streamed bursts through an accessor and replays a
 * stream's repeating waves whole periods at a time; the merger walks
 * each pair's sorted rowIds and coordinates once, into flat buffers;
 * OuterSPACE reuses its scatter's transfer for the gather. Each rests on
 * an ordering or shift-invariance argument, so the map-, scan- and
 * two-transfer implementations they replaced live on here, copied
 * verbatim minus their watchdog and fault-injection hooks, and every
 * result is compared exactly on seeded random inputs and edge shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "sim/dram.hpp"
#include "sim/balance.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/suitesparse.hpp"
#include "testkit/oracles.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

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
