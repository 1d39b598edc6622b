/**
 * @file
 * DRAM and DMA models (Section VI-C).
 *
 * The DRAM model charges every request a fixed access latency plus
 * bandwidth occupancy, with a bounded number of requests in flight. The
 * DMA issues up to `reqsPerCycle` *new* requests per cycle — the paper's
 * default Stellar DMA issues one, and the scatter-tolerant variant
 * sixteen; pointer-chased transfers (OuterSPACE partial-sum vectors)
 * must load a pointer before the dependent data request can issue, which
 * is exactly the control dependency that bottlenecked the initial
 * Stellar-generated OuterSPACE.
 */

#ifndef STELLAR_SIM_DRAM_HPP
#define STELLAR_SIM_DRAM_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stellar::sim
{

/** DRAM timing parameters. */
struct DramConfig
{
    std::int64_t latency = 100;        //!< cycles from issue to data
    std::int64_t bytesPerCycle = 32;   //!< sustained bandwidth
    std::int64_t maxOutstanding = 64;  //!< in-flight request cap
    std::int64_t minBurstBytes = 64;   //!< a short read still burns a burst
};

/**
 * A FIFO on a power-of-two ring. The DRAM's in-flight completions and
 * the DMA's pending pointer loads are each bounded by a config cap, so
 * a ring sized at that cap never allocates again; it doubles only if a
 * caller pushes past it.
 */
template <typename T>
class RingFifo
{
  public:
    /** Reserves room for `capacity` entries, up to 4,096: a cap meant
     *  as "unbounded" must not allocate up front. */
    explicit RingFifo(std::int64_t capacity)
    {
        std::size_t size = 1;
        while (std::int64_t(size) < capacity && size < 4096)
            size *= 2;
        slots_.resize(size);
    }

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    /** The i-th entry from the front. */
    T &operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask()];
    }

    const T &front() const { return (*this)[0]; }
    void pop_front() { head_++; }

    void
    push_back(const T &value)
    {
        if (size() == slots_.size())
            grow();
        slots_[tail_++ & mask()] = value;
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    void
    grow()
    {
        std::vector<T> slots(2 * slots_.size());
        for (std::size_t i = 0; i < size(); i++)
            slots[i] = (*this)[i];
        tail_ = size();
        head_ = 0;
        slots_.swap(slots);
    }

    std::vector<T> slots_;
    // Entries ever pushed and popped; they index the ring modulo its
    // size, and their difference is the size.
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/** A latency/bandwidth/occupancy DRAM model. */
class DramModel
{
  public:
    /** Throws FatalError naming the field out of range: a negative
     *  latency, a bandwidth below 1 byte per cycle, or an in-flight cap
     *  below 1 (no request would issue). */
    explicit DramModel(DramConfig config);

    const DramConfig &config() const { return config_; }

    /**
     * Requests still in flight at the given cycle: the completions
     * after `now`. A pure count, exact for any `now` at or after the
     * latest `issue` cycle, asked in any order.
     */
    std::int64_t outstanding(std::int64_t now) const;

    bool canAccept(std::int64_t now) const;

    /**
     * Issue a request at cycle `now`; returns its completion cycle.
     * Bandwidth is charged for at least one burst. Completions at or
     * before `now` retire, so no later query may ask about an earlier
     * cycle.
     */
    std::int64_t issue(std::int64_t now, std::int64_t bytes);

    /** Total bytes transferred so far. */
    std::int64_t bytesTransferred() const { return bytesTransferred_; }

    /** Earliest cycle at which new bandwidth is available. */
    std::int64_t bandwidthCursor() const { return bwCursor_; }

    /**
     * Write into `out` the state that decides every later answer of
     * the model, relative to cycle `now`: `max(bandwidthCursor() - now,
     * 0)`, then each completion still in flight after `now`, minus
     * `now`, in issue order.
     */
    void relativeState(std::int64_t now, std::vector<std::int64_t> &out) const;

    /**
     * Move the model `cycles` later and count `bytes` more transferred:
     * the bandwidth cursor and every completion in flight after `now`
     * move by `cycles`, and the completions at or before `now` are
     * dropped.
     *
     * The time-shift argument: `canAccept`, `outstanding` and `issue`
     * only compare the caller's cycle with the cursor and the
     * completions, and `issue` returns a cycle computed from them.
     * So a caller that asks at `now + cycles` what it asked at `now`
     * gets every answer moved by `cycles`, provided the relative state
     * at the two cycles is the same. A caller whose waves repeat the
     * relative state after a period of `cycles` (a stream of equal
     * bursts, see simulateStream) can therefore replay k periods with
     * one shift of k * `cycles`, as long as it issues once more
     * afterwards: a cursor at or before `now` is moved too, although
     * replaying would have left it elsewhere, and only the next issue,
     * which starts at `max(now, cursor)`, makes it exact again.
     */
    void shift(std::int64_t now, std::int64_t cycles, std::int64_t bytes);

  private:
    /** The index of the first completion in flight after `now`. */
    std::size_t firstAfter(std::int64_t now) const;

    /** Drop the completions at or before `now`. */
    void retire(std::int64_t now);

    DramConfig config_;
    std::int64_t bwCursor_ = 0;
    std::int64_t bytesTransferred_ = 0;
    /** Completion cycles in issue order, which is ascending order. */
    RingFifo<std::int64_t> inflight_;
};

/** DMA issue-rate configuration. The DMA keeps no in-flight cap of
 *  its own: requests wait on the DRAM's (DramConfig::maxOutstanding). */
struct DmaConfig
{
    int reqsPerCycle = 1;  //!< new independent requests per cycle

    /**
     * In-flight pointer-load contexts: how many pointer-chased transfers
     * the DMA can track between issuing a pointer load and issuing its
     * dependent data request. The paper's default DMA tracks few; the
     * 16-requests-per-cycle variant tracks 16x as many "independent"
     * requests, which is what recovers memory-level parallelism for
     * scattered accesses (Section VI-C).
     */
    int pointerContexts = 10;

    /** A DMA issuing R requests/cycle with proportional contexts. */
    static DmaConfig
    withRate(int reqs_per_cycle)
    {
        DmaConfig config;
        config.reqsPerCycle = reqs_per_cycle;
        config.pointerContexts = 10 * reqs_per_cycle;
        return config;
    }
};

/** One DMA transfer chunk. */
struct TransferChunk
{
    std::int64_t bytes = 0;

    /** Pointer-chased: an 8-byte pointer load must complete before the
     *  data request can issue. */
    bool pointerChased = false;
};

/** `count` consecutive copies of one chunk. */
struct TransferRun
{
    TransferChunk chunk;
    std::int64_t count = 0;
};

/** Result of a simulated DMA transfer. */
struct TransferResult
{
    std::int64_t cycles = 0;
    std::int64_t requests = 0;
    std::int64_t bytes = 0;
    std::int64_t pointerStallCycles = 0;
};

/**
 * Cycle-accurate simulation of a DMA moving the given chunks through
 * DRAM. Chunks are independent of each other; within a pointer-chased
 * chunk the data request depends on its pointer load. Throws FatalError
 * when `dma.reqsPerCycle` is below 1, or `dma.pointerContexts` is below
 * 1 and a chunk is pointer-chased: either would never issue.
 */
TransferResult simulateTransfer(const DmaConfig &dma, DramModel &dram,
                                const std::vector<TransferChunk> &chunks,
                                std::int64_t start_cycle = 0);

/** The same transfer over the chunks `runs` spells out, in order. */
TransferResult simulateTransfer(const DmaConfig &dma, DramModel &dram,
                                const std::vector<TransferRun> &runs,
                                std::int64_t start_cycle = 0);

/**
 * A contiguous streaming transfer of `bytes`: the transfer of its
 * DRAM-burst-sized chunks, the last one carrying the remainder.
 *
 * Every burst but the last costs the DRAM the same occupancy, so once
 * the DRAM's state relative to the wave's cycle (see
 * DramModel::relativeState) repeats at a wave start, every later wave
 * repeats it with the same period until the last bursts. The loop
 * finds the first repeat (Brent's cycle detection) and replays whole
 * periods in one DramModel::shift, keeping at least one period plus
 * the last burst to run. Every output is the per-wave loop's: the
 * TransferResult, the DRAM's cursor, bytes and in-flight completions,
 * the watchdog steps charged (one per wave, replayed ones included,
 * never skipping past the remaining step budget, so expiry lands on
 * the same wave with the same dump), and the `sim.dram.wave` fault
 * checkpoints (nothing is replayed while an injection is armed).
 */
TransferResult simulateStream(const DmaConfig &dma, DramModel &dram,
                              std::int64_t bytes,
                              std::int64_t start_cycle = 0);

} // namespace stellar::sim

#endif // STELLAR_SIM_DRAM_HPP
