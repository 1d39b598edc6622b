/**
 * @file
 * Differential oracles for the simulator hot paths.
 *
 * The DMA transfer loop keeps its in-flight and pending-pointer queues as
 * FIFOs and reads streamed bursts through an accessor; the merger walks
 * each pair's sorted rowIds once. Both rest on ordering arguments, so
 * the map- and scan-based implementations they replaced live on here,
 * copied verbatim minus their watchdog and fault-injection hooks, and
 * every result is compared exactly on seeded random inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "sim/dram.hpp"
#include "sim/merger.hpp"
#include "sparse/spgemm.hpp"
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

TEST(TransferOracle, StreamEqualsExplicitBurstChunks)
{
    for (int rate : {1, 16}) {
        const DmaConfig dma = DmaConfig::withRate(rate);
        for (std::int64_t bytes :
                {std::int64_t(0), std::int64_t(1), std::int64_t(63),
                 std::int64_t(64), std::int64_t(65),
                 std::int64_t(1000007)}) {
            SCOPED_TRACE("rate " + std::to_string(rate) + ", " +
                         std::to_string(bytes) + " bytes");
            const DramConfig config;
            const auto chunks = streamChunks(bytes, config.minBurstBytes);
            for (std::int64_t start : {std::int64_t(0), std::int64_t(777)}) {
                DramModel streamed(config), explicit_chunks(config);
                OracleDram oracle(config);
                auto got = simulateStream(dma, streamed, bytes, start);
                auto via_chunks =
                        simulateTransfer(dma, explicit_chunks, chunks, start);
                auto want = oracleTransfer(dma, oracle, chunks, start);
                expectSameTransfer(got, via_chunks);
                expectSameTransfer(got, want);
                EXPECT_EQ(streamed.bandwidthCursor(),
                          oracle.bandwidthCursor());
                EXPECT_EQ(got.requests, std::int64_t(chunks.size()));
            }
        }
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
        expectSamePartial(mergePartialPair(a, b),
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

} // namespace
} // namespace stellar::sim
