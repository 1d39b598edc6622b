/**
 * @file
 * Cycle-level model of an OuterSPACE-like outer-product SpGEMM
 * accelerator (Section VI-C, Fig 16b).
 *
 * Execution has two phases:
 *  - multiply: stream A (CSC) and B (CSR) in, compute outer products,
 *    and *scatter* partial-sum vectors to DRAM. Each scattered vector is
 *    reached through a pointer that must itself be read from DRAM first.
 *  - merge: *gather* the scattered partial vectors back (pointer loads
 *    again), merge them, and write the final CSR result.
 *
 * The pointer traffic is under 10% of total bytes but, through the DMA's
 * new-request rate limit, dominated the initial Stellar-generated
 * accelerator's runtime (1.42 GFLOP/s vs the paper's 2.9); raising the
 * DMA to 16 independent requests per cycle recovered 2.1 GFLOP/s.
 */

#ifndef STELLAR_SIM_OUTERSPACE_HPP
#define STELLAR_SIM_OUTERSPACE_HPP

#include <cstdint>

#include "sim/dram.hpp"
#include "sparse/matrix.hpp"
#include "sparse/spgemm.hpp"

namespace stellar::sim
{

/** OuterSPACE-like accelerator configuration. */
struct OuterSpaceConfig
{
    int multipliers = 256;    //!< parallel multiply lanes
    int mergeLanes = 64;      //!< merge-phase lanes
    double freqGhz = 1.5;     //!< OuterSPACE's clock

    /** Work groups the multiply phase schedules across (PE tiles). */
    int workGroups = 16;

    /** Listing 3-style adjacent-wave work sharing between the groups
     *  (Fig 6). Off, every wave waits for its slowest group. */
    bool loadBalanced = true;

    /** HBM-class memory, as in the OuterSPACE evaluation. */
    OuterSpaceConfig() { dram.bytesPerCycle = 56; }

    DramConfig dram;
    DmaConfig dma;            //!< reqsPerCycle = 1 default, 16 improved
};

/** Result of one SpGEMM run. */
struct OuterSpaceResult
{
    std::int64_t multiplyPhaseCycles = 0;
    std::int64_t mergePhaseCycles = 0;
    std::int64_t cycles = 0;
    std::int64_t multiplies = 0;
    std::int64_t dramBytes = 0;
    std::int64_t pointerRequests = 0;
    std::int64_t pointerStallCycles = 0;
    std::int64_t balancerShifts = 0; //!< runtime space-time biases applied
    double multiplyUtilization = 0.0;

    /** 2 * multiplies / time (the paper's Fig 16b metric). */
    double gflops(double freq_ghz) const;
};

/**
 * Simulate C = A * A (the squaring workload OuterSPACE reports). Throws
 * FatalError when `workGroups` or `mergeLanes` is below 1, or the DRAM
 * or DMA config is one the transfer loop rejects.
 */
OuterSpaceResult simulateOuterSpace(const OuterSpaceConfig &config,
                                    const sparse::CsrMatrix &a);

} // namespace stellar::sim

#endif // STELLAR_SIM_OUTERSPACE_HPP
