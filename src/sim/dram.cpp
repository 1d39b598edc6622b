#include "sim/dram.hpp"

#include <algorithm>
#include <string>

#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{

DramModel::DramModel(DramConfig config)
    : config_(config), inflight_(config.maxOutstanding)
{
    require(config_.latency >= 0, "DramConfig::latency must not be negative");
    require(config_.bytesPerCycle >= 1,
            "DramConfig::bytesPerCycle must be at least 1");
    require(config_.maxOutstanding >= 1,
            "DramConfig::maxOutstanding must be at least 1");
}

std::int64_t
DramModel::outstanding(std::int64_t now) const
{
    while (!inflight_.empty() && inflight_.front() <= now)
        inflight_.pop_front();
    return std::int64_t(inflight_.size());
}

bool
DramModel::canAccept(std::int64_t now) const
{
    return outstanding(now) < config_.maxOutstanding;
}

std::int64_t
DramModel::issue(std::int64_t now, std::int64_t bytes)
{
    require(bytes > 0, "DRAM request must move at least one byte");
    std::int64_t charged = std::max(bytes, config_.minBurstBytes);
    std::int64_t start = std::max(now, bwCursor_);
    std::int64_t occupancy =
            (charged + config_.bytesPerCycle - 1) / config_.bytesPerCycle;
    const std::int64_t last = bwCursor_ + config_.latency;
    bwCursor_ = start + occupancy;
    bytesTransferred_ += bytes;
    std::int64_t completion = bwCursor_ + config_.latency;
    // The in-flight FIFO and simulateTransfer's pending FIFO are sorted
    // only because completions strictly increase in issue order. The
    // constructor's bandwidth check makes every occupancy at least one
    // cycle, so this holds; the panic stays as a second line.
    if (completion <= last)
        panic("DRAM completions must strictly increase in issue order");
    inflight_.push_back(completion);
    return completion;
}

void
DramModel::relativeState(std::int64_t now,
                         std::vector<std::int64_t> &out) const
{
    outstanding(now);
    out.clear();
    out.push_back(std::max<std::int64_t>(bwCursor_ - now, 0));
    for (std::size_t i = 0; i < inflight_.size(); i++)
        out.push_back(inflight_[i] - now);
}

void
DramModel::shift(std::int64_t now, std::int64_t cycles, std::int64_t bytes)
{
    outstanding(now);
    for (std::size_t i = 0; i < inflight_.size(); i++)
        inflight_[i] += cycles;
    bwCursor_ += cycles;
    bytesTransferred_ += bytes;
}

namespace
{

/** Where a transfer stood at the start of one of its waves. */
struct WaveMark
{
    std::int64_t wave = 0;
    std::int64_t now = 0;
    std::int64_t chunk = 0;
    std::int64_t bytes = 0;
};

/**
 * Brent's cycle detection over the DRAM's relative state at wave
 * starts: the state is saved at waves 0, 1, 3, 7, ..., and each wave
 * compares its state with the last one saved.
 */
class WavePeriod
{
  public:
    /** True when the state at `mark` repeats the one saved at saved(). */
    bool
    repeats(const DramModel &dram, const WaveMark &mark)
    {
        dram.relativeState(mark.now, state_);
        if (hasSaved_ && state_ == savedState_)
            return true;
        if (!hasSaved_ || mark.wave == saved_.wave + power_) {
            savedState_.swap(state_);
            saved_ = mark;
            hasSaved_ = true;
            power_ *= 2;
        }
        return false;
    }

    const WaveMark &saved() const { return saved_; }

  private:
    std::vector<std::int64_t> state_;
    std::vector<std::int64_t> savedState_;
    WaveMark saved_;
    bool hasSaved_ = false;
    std::int64_t power_ = 1;
};

/**
 * The DMA transfer loop over `count` chunks, read through `chunk_at(i)`
 * at nondecreasing `i`, so neither a stream nor a run-length list
 * materializes its chunks. With `kStream`, every chunk but the last is
 * one full burst and none is pointer-chased, and the loop replays whole
 * periods of waves once they repeat (see simulateStream).
 */
template <bool kStream, typename ChunkAt>
TransferResult
transfer(const DmaConfig &dma, DramModel &dram, std::int64_t count,
         ChunkAt &&chunk_at, std::int64_t start_cycle)
{
    require(dma.reqsPerCycle >= 1,
            "DmaConfig::reqsPerCycle must be at least 1");
    TransferResult result;
    std::int64_t now = start_cycle;

    // Chunks whose pointer load has been issued, with the cycle the
    // pointer value arrives. Pointer loads complete in issue order, so
    // the front is always the earliest arrival.
    struct PendingData
    {
        std::int64_t readyAt = 0;
        std::int64_t bytes = 0;
    };
    RingFifo<PendingData> pending(dma.pointerContexts);
    std::int64_t next_chunk = 0;
    std::int64_t last_completion = start_cycle;

    auto all_done = [&]() {
        return next_chunk >= count && pending.empty();
    };

    // One watchdog step per simulated wave, batched: a transfer that
    // stops making progress (livelocked arbitration, a DRAM that never
    // accepts) expires the budget with its queue state instead of
    // spinning forever.
    util::WatchdogBatcher dog;
    auto dump = [&]() {
        return "dram transfer at cycle " + std::to_string(now) +
               ", chunk " + std::to_string(next_chunk) + "/" +
               std::to_string(count) + ", " +
               std::to_string(pending.size()) +
               " pointer loads pending, " +
               std::to_string(dram.outstanding(now)) +
               " requests outstanding";
    };
    [[maybe_unused]] WavePeriod period;
    [[maybe_unused]] bool searching = kStream;
    [[maybe_unused]] std::int64_t wave = 0;
    while (!all_done()) {
        if constexpr (kStream) {
            const WaveMark mark{wave, now, next_chunk, result.bytes};
            if (searching && period.repeats(dram, mark)) {
                searching = false;
                // Replay k whole periods, keeping one period plus the
                // last chunk to run and staying within the step budget.
                // A stream issues one request per chunk.
                const WaveMark &from = period.saved();
                const std::int64_t waves = mark.wave - from.wave;
                const std::int64_t chunks = mark.chunk - from.chunk;
                std::int64_t k = 0;
                if (chunks > 0 && !util::fault::armed())
                    k = std::min((count - 1 - next_chunk) / chunks - 1,
                                 dog.allowance() / waves);
                if (k > 0) {
                    const std::int64_t cycles = k * (now - from.now);
                    const std::int64_t bytes = k * (mark.bytes - from.bytes);
                    dram.shift(now, cycles, bytes);
                    now += cycles;
                    last_completion += cycles;
                    next_chunk += k * chunks;
                    result.requests += k * chunks;
                    result.bytes += bytes;
                    wave += k * waves;
                    dog.charge(k * waves, dump);
                }
            }
            wave++;
        }
        if (util::fault::armed())
            util::fault::checkpoint("sim.dram.wave");
        dog.step(dump);
        int issued_this_cycle = 0;
        bool stalled_on_pointer = false;
        while (issued_this_cycle < dma.reqsPerCycle) {
            if (!dram.canAccept(now))
                break;
            // Prefer dependent data requests whose pointers have arrived.
            if (!pending.empty() && pending.front().readyAt <= now) {
                std::int64_t done = dram.issue(now, pending.front().bytes);
                last_completion = std::max(last_completion, done);
                result.requests++;
                result.bytes += pending.front().bytes;
                pending.pop_front();
                issued_this_cycle++;
                continue;
            }
            if (next_chunk < count) {
                const TransferChunk chunk = chunk_at(next_chunk);
                if (chunk.pointerChased &&
                        std::int64_t(pending.size()) >=
                                dma.pointerContexts) {
                    // All pointer contexts are occupied: stall until a
                    // pointer returns and its data request issues.
                    stalled_on_pointer = true;
                    break;
                }
                next_chunk++;
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
                skip_to = std::max(skip_to,
                                   std::min(pending.front().readyAt,
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

} // namespace

TransferResult
simulateTransfer(const DmaConfig &dma, DramModel &dram,
                 const std::vector<TransferChunk> &chunks,
                 std::int64_t start_cycle)
{
    // A pointer-chased chunk with no context to track it never issues.
    require(dma.pointerContexts >= 1 ||
                    std::none_of(chunks.begin(), chunks.end(),
                                 [](const TransferChunk &chunk) {
                                     return chunk.pointerChased;
                                 }),
            "DmaConfig::pointerContexts must be at least 1 for a "
            "pointer-chased transfer");
    return transfer<false>(
            dma, dram, std::int64_t(chunks.size()),
            [&](std::int64_t i) { return chunks[std::size_t(i)]; },
            start_cycle);
}

TransferResult
simulateTransfer(const DmaConfig &dma, DramModel &dram,
                 const std::vector<TransferRun> &runs,
                 std::int64_t start_cycle)
{
    std::int64_t count = 0;
    bool chased = false;
    for (const auto &run : runs) {
        require(run.count >= 0, "TransferRun::count must not be negative");
        count += run.count;
        chased = chased || (run.count > 0 && run.chunk.pointerChased);
    }
    require(dma.pointerContexts >= 1 || !chased,
            "DmaConfig::pointerContexts must be at least 1 for a "
            "pointer-chased transfer");
    // Chunk i lies in the run ending first past i; reads only move
    // forward, so one cursor walks the runs.
    std::size_t run = 0;
    std::int64_t run_end = 0;
    auto chunk_at = [&](std::int64_t i) {
        while (i >= run_end)
            run_end += runs[run++].count;
        return runs[run - 1].chunk;
    };
    return transfer<false>(dma, dram, count, chunk_at, start_cycle);
}

TransferResult
simulateStream(const DmaConfig &dma, DramModel &dram, std::int64_t bytes,
               std::int64_t start_cycle)
{
    const std::int64_t burst = dram.config().minBurstBytes;
    require(burst > 0, "a streamed transfer needs a positive burst size");
    auto chunk_at = [&](std::int64_t i) {
        return TransferChunk{std::min(burst, bytes - i * burst)};
    };
    const std::int64_t bursts = bytes > 0 ? (bytes + burst - 1) / burst : 0;
    return transfer<true>(dma, dram, bursts, chunk_at, start_cycle);
}

} // namespace stellar::sim
