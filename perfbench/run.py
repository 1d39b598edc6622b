#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR or .bench_build, runs the workload in
its own process, checks that it produced every metric BENCHMARK.json
names, and prints each metric with its unit and sample count. The last
line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set. Results and traces are also written under .bench_out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_out"
HARNESS_TIMEOUT_S = 170
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def percentile(samples, q):
    """Nearest-rank q-th percentile of `samples` as (value, n_beyond), or
    None when fewer than MIN_BEYOND samples lie strictly beyond it."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for x in ordered if x > value)
    if beyond < MIN_BEYOND:
        return None
    return value, beyond


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build the harness; returns its path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_harness"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return out / "perfbench_harness"


def run_harness(harness, args):
    """Run the harness and return its result object (its last line)."""
    proc = subprocess.run(
        [str(harness), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT_DIR)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1])


def src_line_count():
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle)
    return total


def end_to_end(raw):
    """Metric name -> (value, n) from an untraced run."""
    p50 = percentile(raw["op_ms"], 50)
    if p50 is None:
        raise RuntimeError("op_p50_ms: only %d ops, fewer than %d beyond "
                           "the median" % (len(raw["op_ms"]), MIN_BEYOND))
    ok = raw["attempted"] - raw["failed"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "op_p50_ms": (p50[0], len(raw["op_ms"])),
        "ok_per_s": (ok / raw["timed_s"], ok),
        "cpu_ms_per_op": (1000.0 * raw["timed_cpu_s"] / raw["attempted"],
                          raw["attempted"]),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def per_layer(raw):
    """Metric name -> (value, n) from a traced run."""
    layers = dict(raw["layers"])
    latencies = layers.pop("serve.req_latencies_ms")
    p90 = percentile(latencies, 90)
    if p90 is None:
        raise RuntimeError("serve.req_p90_ms: too few probe requests")
    metrics = {name: (value, 1) for name, value in layers.items()}
    metrics["serve.req_p90_ms"] = (p90[0], len(latencies))
    untraced = statistics.median(raw["op_ms"])
    traced = statistics.median(raw["traced_op_ms"])
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced,
                                     len(raw["traced_op_ms"]))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RuntimeError("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    raw = run_harness(build(), args)
    measured = per_layer(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError("metrics not produced: " + ", ".join(missing))

    host = {"nproc": raw["threads"], "compiler": raw["compiler"],
            "build_type": raw["build_type"], "src_lines": src_line_count()}
    print("host: nproc=%(nproc)d compiler=%(compiler)s "
          "build_type=%(build_type)s src_lines=%(src_lines)d" % host)
    attempted, failed = raw["attempted"], raw["failed"]
    print("%s seed %d: fail_ratio %.4g (%d failed of %d attempted)"
          % (args.workload, args.seed, failed / attempted, failed, attempted))
    metrics = {}
    for metric in wanted:
        value, n = measured[metric["name"]]
        print("  %-30s %14.6g %-6s n=%d" % (metric["name"], value,
                                            metric["unit"], n))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, host=host)
    (OUT_DIR / ("result-%s-%d-%d.json" % (args.workload, args.seed,
                                          args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: " + str(err))
        sys.exit(1)
