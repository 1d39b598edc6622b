/**
 * @file
 * A command-line front end for the generator — the "type one command,
 * get Verilog" experience:
 *
 *   stellar_cli <design> [--dim N] [--out FILE] [--report] [--soc]
 *                        [--testbench] [--dma-inflight R]
 *
 * designs: gemmini | scnn | outerspace | gamma | sparch | a100 | pipeline
 *
 * The `dse` command runs the automated dataflow search instead of
 * generating a fixed design:
 *
 *   stellar_cli dse [--dim N] [--threads T] [--topk K] [--max-pes P]
 *                   [--analytic-top-k K] [--max-hop H] [--max-coeff C]
 *                   [--enum-limit N]
 *
 * The `sim` command sweeps a cycle-level simulator over its workload
 * suite through the parallel driver (results are byte-identical at any
 * thread count; budgets apply per workload point):
 *
 *   stellar_cli sim [--workload scnn|outerspace] [--threads T]
 *                   [--step-budget B] [--time-budget MS]
 *
 * Both commands share the process-wide workload cache
 * (workloads::Cache); `--no-cache` disables it and `--cache-stats`
 * prints its counters to stderr (output on stdout is byte-identical
 * either way). `--spill-dir DIR` adds the disk-spill tier: LRU victims
 * serialize to checksummed files under DIR and reload on miss.
 *
 * Distributed DSE: `dse --shard i/N --emit-records FILE` scans one
 * contiguous slice of the candidate space, cut so every shard decodes
 * the same number of feasible codes, into a versioned records
 * file; `merge FILE...` folds the N shard files back into the exact
 * single-process ranking (docs/DISTRIBUTED.md).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "accel/designs.hpp"
#include "accel/pipeline.hpp"
#include "accel/report.hpp"
#include "core/accelerator.hpp"
#include "core/selftest.hpp"
#include "func/diagnose.hpp"
#include "rtl/generate.hpp"
#include "rtl/lint.hpp"
#include "rtl/soc.hpp"
#include "rtl/testbench.hpp"
#include "serve/commands.hpp"
#include "workloads/cache.hpp"

using namespace stellar;

namespace
{

void
usage()
{
    std::printf(
            "usage: stellar_cli <design> [options]\n"
            "       stellar_cli merge FILE... [--threads T] "
            "[--no-timings]\n"
            "  designs: gemmini scnn outerspace gamma sparch a100 "
            "pipeline dse sim\n"
            "  --dim N           array dimension (default 8)\n"
            "  --out FILE        write Verilog to FILE\n"
            "  --report          print the architect's design report\n"
            "  --soc             wrap into a full SoC (CPU + L2)\n"
            "  --testbench       add an auto-generated testbench\n"
            "  --selftest        check schedule vs golden model\n"
            "  --dma-inflight R  DMA requests per cycle (default 1)\n"
            "  dse options:\n"
            "  --threads T       DSE workers (0 = hardware concurrency)\n"
            "  --topk K          designs to keep (default 10)\n"
            "  --max-pes P       prune candidates over P PEs (exact "
            "analytic count)\n"
            "  --analytic-top-k K  closed-form score every candidate, "
            "elaborate only\n"
            "                    the best K (exact ranking, millions of "
            "candidates/s;\n"
            "                    0 = score everything by elaboration)\n"
            "  --max-hop H       admit wires up to H PEs per hop "
            "(default 2)\n"
            "  --max-coeff C     enumerate coefficients in [-C, C] "
            "(default 1)\n"
            "  --enum-limit N    cap enumerated candidates (default "
            "4096)\n"
            "  --step-budget B   per-candidate watchdog step budget "
            "(0 = unlimited);\n"
            "                    over-budget candidates are recorded as "
            "timeout failures\n"
            "  --time-budget MS  per-candidate wall-clock deadline in "
            "ms (0 = none);\n"
            "                    expiry is recorded as a wall-clock "
            "timeout failure\n"
            "  --fail-fast       rethrow the first candidate failure "
            "instead of\n"
            "                    recording it and continuing\n"
            "  --retry-wall-clock  retry a wall-clock-timeout candidate "
            "exactly once\n"
            "                    (step-budget timeouts never retry)\n"
            "  --no-timings      omit the wall-time line of the DSE "
            "stats report\n"
            "                    (deterministic, byte-comparable "
            "output)\n"
            "  --shard I/N       scan only shard I of N (equal slices "
            "of the feasible\n"
            "                    codes, so every shard decodes as many); "
            "requires\n"
            "                    --emit-records and --analytic-top-k\n"
            "  --emit-records F  write the shard's candidate records to "
            "F instead of\n"
            "                    printing a ranking (fold shards with "
            "`merge`)\n"
            "  merge options: FILE... plus --threads, --step-budget, "
            "--time-budget,\n"
            "                 --fail-fast, --retry-wall-clock, "
            "--no-timings\n"
            "  sim options:\n"
            "  --workload W      scnn (pruned AlexNet) or outerspace "
            "(SuiteSparse suite)\n"
            "  --threads T       sweep workers (0 = hardware "
            "concurrency); results are\n"
            "                    byte-identical at any value\n"
            "  --step-budget B   per-point watchdog step budget "
            "(0 = unlimited)\n"
            "  --time-budget MS  per-point wall-clock deadline in ms "
            "(0 = none)\n"
            "  shared options:\n"
            "  --no-cache        disable the workload cache (identical "
            "output, no reuse)\n"
            "  --cache-stats     print workload-cache counters to "
            "stderr on exit\n"
            "  --spill-dir DIR   spill workload-cache LRU victims to "
            "checksummed files\n"
            "                    under DIR and reload them on miss "
            "(identical output;\n"
            "                    corrupt files re-synthesize silently)\n"
            "  --spill-budget B  cap the spill directory at B bytes "
            "(0 = unbounded);\n"
            "                    oldest spill files age out first\n");
}

// The sim/dse implementations live in serve/commands.{hpp,cpp}: the
// serve daemon returns the same renderer's string as a response, which
// is what keeps served-vs-CLI byte-identity true by construction.

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string design_name = argv[1];
    int dim = 8;
    std::string out_path;
    bool want_report = false, want_soc = false, want_tb = false;
    bool want_selftest = false;
    rtl::RtlOptions rtl_options;
    serve::SimRequest sim_request;
    serve::DseRequest dse_request;
    dse_request.threads = 0; // CLI default: hardware concurrency
    dse_request.timings = true;
    bool cache_stats = false;
    std::int64_t shard_index = 0, shard_count = 0; // 0 = unsharded
    std::string emit_records;
    std::string spill_dir;
    std::uint64_t spill_budget = 0;
    std::vector<std::string> merge_inputs;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--dim")
            dim = std::atoi(next());
        else if (arg == "--out")
            out_path = next();
        else if (arg == "--report")
            want_report = true;
        else if (arg == "--soc")
            want_soc = true;
        else if (arg == "--testbench")
            want_tb = true;
        else if (arg == "--selftest")
            want_selftest = true;
        else if (arg == "--dma-inflight")
            rtl_options.dmaMaxInflight = std::atoi(next());
        else if (arg == "--threads") {
            std::size_t threads =
                    std::size_t(std::max(0, std::atoi(next())));
            dse_request.threads = threads;
            sim_request.threads = threads;
        } else if (arg == "--workload")
            sim_request.workload = next();
        else if (arg == "--time-budget") {
            std::int64_t millis =
                    std::max<std::int64_t>(0, std::atoll(next()));
            sim_request.timeBudgetMillis = millis;
            dse_request.timeBudgetMillis = millis;
        } else if (arg == "--no-cache")
            workloads::Cache::global().setEnabled(false);
        else if (arg == "--cache-stats")
            cache_stats = true;
        else if (arg == "--topk")
            dse_request.topK = std::size_t(std::max(1, std::atoi(next())));
        else if (arg == "--max-pes")
            dse_request.maxPes = std::max<std::int64_t>(0, std::atoll(next()));
        else if (arg == "--analytic-top-k")
            dse_request.analyticTopK =
                    std::size_t(std::max(0, std::atoi(next())));
        else if (arg == "--max-hop")
            dse_request.maxHop = std::max(1, std::atoi(next()));
        else if (arg == "--max-coeff")
            dse_request.maxCoeff = std::max(1, std::atoi(next()));
        else if (arg == "--enum-limit")
            dse_request.enumLimit =
                    std::size_t(std::max(1, std::atoi(next())));
        else if (arg == "--step-budget") {
            std::int64_t steps =
                    std::max<std::int64_t>(0, std::atoll(next()));
            sim_request.stepBudget = steps;
            dse_request.stepBudget = steps;
        } else if (arg == "--fail-fast")
            dse_request.failFast = true;
        else if (arg == "--retry-wall-clock")
            dse_request.retryWallClock = true;
        else if (arg == "--no-timings")
            dse_request.timings = false;
        else if (arg == "--shard") {
            long long index = 0, count = 0;
            if (std::sscanf(next(), "%lld/%lld", &index, &count) != 2 ||
                count < 1 || index < 0 || index >= count) {
                std::fprintf(stderr,
                             "error: --shard wants I/N with 0 <= I < N\n");
                return 1;
            }
            shard_index = index;
            shard_count = count;
        } else if (arg == "--emit-records")
            emit_records = next();
        else if (arg == "--spill-dir")
            spill_dir = next();
        else if (arg == "--spill-budget")
            spill_budget = std::uint64_t(
                    std::max<std::int64_t>(0, std::atoll(next())));
        else if (design_name == "merge" && !arg.empty() && arg[0] != '-')
            merge_inputs.push_back(arg);
        else {
            usage();
            return 1;
        }
    }
    if (!spill_dir.empty())
        workloads::Cache::global().setSpill(spill_dir, spill_budget);

    // stderr, not stdout: hit/miss splits depend on thread timing,
    // and stdout stays byte-identical with the cache on and off.
    auto report_cache = [&] {
        if (cache_stats)
            std::fprintf(stderr, "%s\n",
                         workloads::cacheStatsReport(
                                 workloads::Cache::global().stats())
                                 .c_str());
    };
    try {
        if (design_name == "dse") {
            dse_request.dim = dim;
            if (shard_count > 0 || !emit_records.empty()) {
                serve::ShardScanRequest shard_request;
                shard_request.dse = dse_request;
                shard_request.shardIndex = shard_index;
                shard_request.shardCount =
                        shard_count > 0 ? shard_count : 1;
                shard_request.outPath = emit_records;
                auto rendered = serve::renderShardScan(shard_request);
                std::printf("%s", rendered.output.c_str());
                report_cache();
                return rendered.exitCode;
            }
            auto rendered = serve::renderDse(dse_request);
            std::printf("%s", rendered.output.c_str());
            report_cache();
            return rendered.exitCode;
        }
        if (design_name == "merge") {
            serve::MergeRequest merge_request;
            merge_request.inputs = merge_inputs;
            merge_request.threads = dse_request.threads;
            merge_request.stepBudget = dse_request.stepBudget;
            merge_request.timeBudgetMillis = dse_request.timeBudgetMillis;
            merge_request.retryWallClock = dse_request.retryWallClock;
            merge_request.failFast = dse_request.failFast;
            merge_request.timings = dse_request.timings;
            auto rendered = serve::renderMerge(merge_request);
            std::printf("%s", rendered.output.c_str());
            report_cache();
            return rendered.exitCode;
        }
        if (design_name == "sim") {
            auto rendered = serve::renderSim(sim_request);
            std::printf("%s", rendered.output.c_str());
            report_cache();
            return rendered.exitCode;
        }
        rtl::Design design;
        if (design_name == "pipeline") {
            auto pipeline = accel::generatePipeline(
                    accel::sparseMatmulPipelineSpec(dim, dim));
            design = accel::lowerPipelineToVerilog(pipeline, rtl_options);
            std::printf("generated pipeline: %zu stages, %lld PEs total\n",
                        pipeline.stages.size(),
                        (long long)pipeline.totalPes());
        } else {
            core::AcceleratorSpec spec;
            if (design_name == "gemmini")
                spec = accel::gemminiLikeSpec(dim);
            else if (design_name == "scnn")
                spec = accel::scnnLikeSpec();
            else if (design_name == "outerspace")
                spec = accel::outerSpaceLikeSpec(dim);
            else if (design_name == "gamma")
                spec = accel::gammaMergerSpec(dim);
            else if (design_name == "sparch")
                spec = accel::spArchMergerSpec(dim);
            else if (design_name == "a100")
                spec = accel::a100SparseSpec(dim);
            else {
                usage();
                return 1;
            }
            auto generated = core::generate(spec);
            std::printf("generated %s: %lld PEs, %zu regfiles, schedule "
                        "%lld steps\n", spec.name.c_str(),
                        (long long)generated.array.numPes(),
                        generated.regfiles.size(),
                        (long long)generated.array.scheduleLength());
            if (want_report) {
                model::AreaParams area_params;
                model::TimingParams timing_params;
                std::printf("%s\n",
                            accel::designReport(generated, area_params,
                                                timing_params)
                                    .c_str());
                auto findings = func::diagnose(spec.functional);
                if (!findings.empty())
                    std::printf("-- diagnostics --\n%s\n",
                                func::diagnosticsToString(findings)
                                        .c_str());
            }
            if (want_selftest) {
                auto check = core::selfTest(generated, 1);
                std::printf("self-test: %s (%lld outputs checked, "
                            "%.1f%% PE utilization)\n",
                            check.passed ? "PASS" : "FAIL",
                            (long long)check.outputsChecked,
                            100.0 * check.utilization);
                if (!check.passed)
                    std::printf("  %s\n", check.failure.c_str());
            }
            design = rtl::lowerToVerilog(generated, rtl_options);
        }

        if (want_soc)
            rtl::assembleSoc(design);
        if (want_tb)
            rtl::addTopTestbench(design, 256);

        auto issues = rtl::lintAll(design);
        std::printf("%zu Verilog modules, %zu lint issues\n",
                    design.modules().size(), issues.size());
        for (const auto &issue : issues)
            std::printf("  lint: %s: %s\n", issue.module.c_str(),
                        issue.message.c_str());
        if (!out_path.empty()) {
            design.writeFile(out_path);
            std::printf("wrote %s\n", out_path.c_str());
        }
        return issues.empty() ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
