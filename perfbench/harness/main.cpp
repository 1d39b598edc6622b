/**
 * @file
 * perfbench_harness: runs one benchmark workload in this process and
 * prints its raw samples as one JSON object on the last line of stdout.
 * perfbench/run.py turns them into the named metrics.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR] [--perturb-every K]
 *   perfbench_harness --print-inputs NAME|serve --seed N
 *
 * A traced run also runs every layer probe once and writes the spans
 * of the whole run to DIR/trace-NAME-SEED.json (Chrome trace format).
 */

#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace
{

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "dse_sweep|dse_shard|sim_sweep --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--perturb-every K]\n"
                 "       perfbench_harness --print-inputs NAME|serve "
                 "--seed N\n");
    return 2;
}

RunResult
runWorkload(const std::string &workload, const RunConfig &config)
{
    if (workload == "dse_sweep")
        return runDseSweep(config);
    if (workload == "dse_shard")
        return runDseShard(config);
    if (workload == "sim_sweep")
        return runSimSweep(config);
    throw std::runtime_error("unknown workload '" + workload + "'");
}

std::string
describeInputs(const std::string &workload, std::uint64_t seed)
{
    if (workload == "dse_sweep" || workload == "dse_shard")
        return describeDseInputs(seed);
    if (workload == "sim_sweep")
        return "OuterSPACE suite at 60000 nnz (seed 1, 16-req DMA) and its "
               "merge trees at 5000 nnz (partials seed 2)\n";
    if (workload == "serve")
        return describeServeInputs(seed); // the traced run's serve probe
    throw std::runtime_error("unknown workload '" + workload + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string workload, print_inputs;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            config.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            config.trace = value == "1";
        else if (arg == "--out-dir")
            config.outDir = value;
        else if (arg == "--perturb-every")
            config.perturbEvery = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--print-inputs")
            print_inputs = value;
        else
            return usage();
    }

    try {
        if (!print_inputs.empty()) {
            std::fputs(describeInputs(print_inputs, config.seed).c_str(),
                       stdout);
            return 0;
        }
        if (workload.empty())
            return usage();

        RunResult result = runWorkload(workload, config);
        if (config.trace) {
            // Every layer is probed in every traced run, so each traced
            // run reports the full per-layer set.
            tracer().setEnabled(true);
            JsonOut layers;
            probeDse(layers, result);
            probeRecords(config, layers, result);
            probeSim(layers, result);
            probeServe(config, layers, result);
            tracer().setEnabled(false);
            result.layersJson = layers.str();

            std::filesystem::create_directories(config.outDir);
            std::ofstream(config.outDir + "/trace-" + workload + "-" +
                          std::to_string(config.seed) + ".json")
                    << tracer().chromeJson();
        }
        for (const auto &failure : result.failures)
            std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());

        JsonOut out;
        out.field("workload", workload);
        out.field("seed", std::int64_t(config.seed));
        out.field("threads", std::int64_t(hostThreads()));
        out.field("compiler", std::string(PERFBENCH_COMPILER));
        out.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
        out.field("setup_s", result.setupS);
        out.field("op_ms", result.opMs);
        out.field("traced_op_ms", result.tracedOpMs);
        out.field("timed_s", result.timedS);
        out.field("timed_cpu_s", result.timedCpuS);
        out.field("attempted", result.attempted);
        out.field("failed", result.failed);
        out.field("peak_rss_mb", peakRssMb());
        out.rawField("layers", result.layersJson);
        std::printf("%s\n", out.str().c_str());
        return 0;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench_harness: %s\n", err.what());
        return 1;
    }
}
