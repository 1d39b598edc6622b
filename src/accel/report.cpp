#include "accel/report.hpp"

#include <sstream>

#include "model/area.hpp"
#include "model/timing.hpp"
#include "util/strings.hpp"

namespace stellar::accel
{

std::string
designReport(const core::GeneratedAccelerator &accel,
             const model::AreaParams &area_params,
             const model::TimingParams &timing_params,
             const ReportOptions &options)
{
    std::ostringstream os;
    const auto &spec = accel.spec;
    const auto &fn = spec.functional;
    os << "==== design report: " << spec.name << " ====\n";

    if (options.includeSpecs) {
        os << "\n-- functionality --\n" << fn.toString();
        os << "\n-- dataflow --\n" << spec.transform.toString() << "\n";
        if (!spec.sparsity.empty())
            os << "\n-- sparsity --\n" << spec.sparsity.toString(fn);
        if (!spec.balancing.empty()) {
            os << "\n-- load balancing --\n"
               << spec.balancing.toString(fn)
               << "granularity: "
               << (spec.balancing.granularity(spec.transform) ==
                                   balance::Granularity::PerPE
                           ? "per-PE"
                           : "row-granular")
               << "\n";
        }
        if (options.includeBuffers && !spec.buffers.empty()) {
            os << "\n-- private memory buffers --\n";
            for (const auto &buffer : spec.buffers) {
                auto stages = mem::planPipeline(buffer, true);
                os << "  " << padRight(buffer.name, 12) << " "
                   << buffer.format.toString() << ", "
                   << buffer.capacityBytes / 1024 << " KiB, "
                   << stages.size() << " read stages ("
                   << mem::pipelineLatency(stages) << " cycles)\n";
            }
        }
        if (!accel.pruneLog.empty()) {
            os << "\n-- pruning decisions (Sec IV-B) --\n";
            for (const auto &decision : accel.pruneLog) {
                os << "  " << fn.tensorNames()[std::size_t(decision.tensor)]
                   << " along " << vecToString(decision.diff) << ": "
                   << (decision.bundled ? "bundled (OptimisticSkip)"
                                        : "pruned")
                   << "\n";
            }
        }
    }

    if (options.includeArray) {
        os << "\n-- spatial array --\n" << accel.array.toString(fn);
    }

    if (options.includeRegfiles && !accel.regfiles.empty()) {
        os << "\n-- register files (Fig 14) --\n";
        for (const auto &plan : accel.regfiles) {
            os << "  " << padRight(plan.tensorName, 4) << " "
               << padRight(core::regfileKindName(plan.config.kind), 18)
               << plan.config.entries << " entries, "
               << plan.config.comparators << " comparators, "
               << plan.config.inPorts << "+" << plan.config.outPorts
               << " ports\n";
        }
    }

    if (options.includeArea) {
        os << "\n-- modeled area --\n";
        double array_area = model::arrayArea(area_params, accel,
                                             options.macBits,
                                             options.dataWidth, true);
        os << "  spatial array: "
           << formatDouble(array_area / 1e3, 1) << "K um^2\n";
        double regfiles = 0.0;
        for (const auto &plan : accel.regfiles)
            regfiles += model::regfileArea(area_params, plan.config,
                                           options.dataWidth, 16);
        os << "  regfiles:      " << formatDouble(regfiles / 1e3, 1)
           << "K um^2\n";
        double buffers = 0.0;
        for (const auto &buffer : spec.buffers)
            buffers += model::bufferArea(area_params, buffer);
        os << "  buffers:       " << formatDouble(buffers / 1e3, 1)
           << "K um^2\n";
    }

    if (options.includeTiming) {
        auto timing = model::timingOf(timing_params, accel, false);
        os << "\n-- timing --\n  Fmax " << formatDouble(timing.fmaxMhz(), 0)
           << " MHz, critical path: " << timing.slowest()->name << " ("
           << formatDouble(timing.criticalPathNs(), 2) << " ns)\n";
    }
    return os.str();
}

std::string
dseStatsReport(const DseStats &stats, bool include_timings)
{
    std::ostringstream os;
    os << "explored " << stats.enumerated << " dataflows (";
    if (stats.orbitSkipped > 0)
        os << stats.orbitSkipped << " orbit-skipped codes, ";
    os << stats.prunedEarly << " pruned early, ";
    if (stats.analyticFiltered > 0)
        os << stats.analyticFiltered << " analytic-filtered, ";
    os << stats.evaluated << " evaluated, " << stats.failed
       << " failed) on " << stats.threadsUsed
       << (stats.threadsUsed == 1 ? " thread" : " threads") << "\n";
    if (include_timings) {
        os << "  enumerate " << formatDouble(stats.enumerateMs, 1)
           << " ms, ";
        if (stats.analyticMs > 0.0)
            os << "analytic " << formatDouble(stats.analyticMs, 2)
               << " ms ("
               << formatDouble(stats.analyticCandidatesPerSecond(), 1)
               << " analytic candidates/s), ";
        os << "evaluate " << formatDouble(stats.evaluateMs, 1)
           << " ms, rank " << formatDouble(stats.rankMs, 2) << " ms ("
           << formatDouble(stats.candidatesPerSecond(), 1)
           << " candidates/s)\n";
    }
    if (stats.retried > 0) {
        os << "  wall-clock retries: " << stats.retried << " ("
           << stats.retrySucceeded << " recovered)\n";
    }
    if (stats.failed > 0) {
        os << "  failures:";
        for (std::size_t k = 0; k < util::kFailureKindCount; k++) {
            if (stats.failedByKind[k] == 0)
                continue;
            os << " " << util::failureKindName(util::FailureKind(k))
               << " x" << stats.failedByKind[k];
        }
        os << "\n";
        // Cap the listing: large sweeps can fail thousands of
        // candidates for the same root cause.
        const std::size_t kMaxListed = 8;
        for (std::size_t i = 0;
             i < stats.failures.size() && i < kMaxListed; i++) {
            os << "    " << stats.failures[i].failure.toString() << "\n";
        }
        if (stats.failures.size() > kMaxListed) {
            os << "    ... and "
               << stats.failures.size() - kMaxListed << " more\n";
        }
    }
    return os.str();
}

} // namespace stellar::accel
