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

#include <cstdint>
#include <deque>
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

/** A latency/bandwidth/occupancy DRAM model. */
class DramModel
{
  public:
    /** Throws FatalError naming the field out of range: a negative
     *  latency, a bandwidth below 1 byte per cycle, or an in-flight cap
     *  below 1 (no request would issue). */
    explicit DramModel(DramConfig config);

    const DramConfig &config() const { return config_; }

    /** Requests still in flight at the given cycle. */
    std::int64_t outstanding(std::int64_t now) const;

    bool canAccept(std::int64_t now) const;

    /**
     * Issue a request at cycle `now`; returns its completion cycle.
     * Bandwidth is charged for at least one burst.
     */
    std::int64_t issue(std::int64_t now, std::int64_t bytes);

    /** Total bytes transferred so far. */
    std::int64_t bytesTransferred() const { return bytesTransferred_; }

    /** Earliest cycle at which new bandwidth is available. */
    std::int64_t bandwidthCursor() const { return bwCursor_; }

  private:
    DramConfig config_;
    std::int64_t bwCursor_ = 0;
    std::int64_t bytesTransferred_ = 0;
    /** Completion cycles in issue order, which is ascending order. */
    mutable std::deque<std::int64_t> inflight_;
};

/** DMA issue-rate configuration. */
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

    std::int64_t maxOutstanding = 64;

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

/** Convenience: a contiguous streaming transfer of `bytes`. */
TransferResult simulateStream(const DmaConfig &dma, DramModel &dram,
                              std::int64_t bytes,
                              std::int64_t start_cycle = 0);

} // namespace stellar::sim

#endif // STELLAR_SIM_DRAM_HPP
