"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every phase runs in its own fresh,
single-threaded worker process (worker.py), one at a time, so library memos
never leak between workloads or phases.

--trace 0  one timed worker measures the end-to-end metrics; six more
           workers only set up, and setup_s is the median of the seven.
           Times are in reference seconds (speed.py).
--trace 1  the fixed trace op list (one pass) runs untraced and traced,
           twice each, in separate workers; the traced workers report the
           per-layer metrics and trace.overhead_share compares wall times.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A per-run summary (op and sample counts, statuses, failures) goes
to .perfbench_out/<workload>-summary.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("oneshot-check", "shared-sentence", "grouping-search")
SETUP_SAMPLES = 7
TRACE_REPEATS = 2
WORKER_TIMEOUT_S = 150


def worker(args, phase: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    # fixed hashing and no bytecode files, so every worker does the same work
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {phase} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list, q: int) -> float:
    """The q-th decile (q = 5 median, q = 9 p90) of the samples."""
    return statistics.quantiles(values, n=10)[q - 1]


def timed_metrics(args) -> tuple[dict, dict, dict]:
    run = worker(args, "timed")
    setups = [run["setup_s"]] + [worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    # Every pass runs the same ops, so each op is timed once per pass, in
    # reference seconds (speed.py).  An op's latency is the median of its
    # timings; throughput is that of one closed-loop client whose ops take
    # those latencies.
    lat_ms = [statistics.median(v) * 1000.0 for v in run["latencies"].values()]
    attempted = run["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1000.0 * len(lat_ms) / sum(lat_ms), "1/s"),
        "latency_p50_ms": (quantile(lat_ms, 5), "ms"),
        "latency_p90_ms": (quantile(lat_ms, 9), "ms"),
        "decided_share": (run["decided"] / attempted, "share"),
        "checked_share": (1.0 - run["failed"] / attempted, "share"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    raw_ms = [statistics.median(v) * 1000.0 for v in run["raw_latencies"].values()]
    summary = {k: v for k, v in run.items() if k not in ("latencies", "raw_latencies")}
    summary.update(setup_samples_s=setups, distinct_ops=len(lat_ms),
                   loop_ops_per_s=attempted / run["wall_s"],
                   wall_clock=dict(ops_per_s=1000.0 * len(raw_ms) / sum(raw_ms),
                                   latency_p50_ms=quantile(raw_ms, 5),
                                   latency_p90_ms=quantile(raw_ms, 9)))
    return run, metrics, summary


def traced_metrics(args) -> tuple[dict, dict, dict]:
    # untraced and traced workers alternate; the faster run of each side
    # stands for it, as the one outside load disturbed least
    runs: dict = {"fixed": [], "traced": []}
    for _ in range(TRACE_REPEATS):
        for phase in runs:
            runs[phase].append(worker(args, phase))
    plain = min(runs["fixed"], key=lambda r: r["wall_s"])
    run = min(runs["traced"], key=lambda r: r["wall_s"])
    metrics = dict(run["per_layer"])
    metrics["trace.overhead_share"] = (run["wall_s"] / plain["wall_s"] - 1.0, "share")
    summary = {k: v for k, v in run.items() if k not in ("latencies", "per_layer")}
    summary["untraced_wall_s"] = [r["wall_s"] for r in runs["fixed"]]
    summary["traced_wall_s"] = [r["wall_s"] for r in runs["traced"]]
    # both traced workers ran and checked the same ops; report the worse
    run["failed"] = max(r["failed"] + r["reuse_violations"] for r in runs["traced"])
    summary["failures"] = sorted({f for r in runs["traced"] for f in r["failures"]})
    if any(r["reuse_violations"] for r in runs["traced"]):
        summary["failures"].append("a sentence object served more than one oneshot-check op")
    return run, metrics, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    for need in ("src/omegalarge/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from the root of an omegalarge checkout",
                  file=sys.stderr)
            return 2

    run, metrics, summary = (traced_metrics if args.trace else timed_metrics)(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-summary.json"), "w") as fh:
        json.dump({"args": vars(args), **summary}, fh, indent=1)
    for msg in summary["failures"]:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
