"""One workload phase in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --phase P

Phases:
  setup     import the library and build the inputs; report the time
  timed     set up, run whole passes until S seconds have passed, check;
            setup and op times are in reference seconds (speed.py)
  fixed     set up, run the fixed trace op list untraced
  traced    set up, run the fixed trace op list traced, probe unused layers,
            check, write the spans

Prints one JSON object on its last stdout line.  Run from the root of a
checkout; `run.py` is the entry point that combines the phases.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import weakref
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, ops, records, times, before=None, probe=None) -> None:
    """Closed loop: each op starts when the previous one has returned.
    Appends (op key, start, end) to `times`.  A speed probe samples its
    reference kernel between ops."""
    for op in ops:
        if before is not None:
            before(op)
        if probe is not None:
            probe.tick()
        t0 = perf_counter()
        try:
            status, rec = workload.execute(op)
        except Exception as err:  # a crash is a failed op, not a stop
            status, rec = "error", {"kind": "error", "error": f"{type(err).__name__}: {err}"}
        times.append((workload.op_key(op), t0, perf_counter()))
        records.append((status, workload.settle(rec)))


def summarize(workload, records, checker) -> dict:
    import workloads

    failures = checker.check(records, workload)
    statuses: dict[str, int] = {}
    for status, _ in records:
        statuses[status] = statuses.get(status, 0) + 1
    return {
        "attempted": len(records),
        "failed": sum(1 for f in failures if f is not None),
        "decided": sum(1 for s, _ in records if s in workloads.DEFINITIVE),
        "statuses": statuses,
        "failures": sorted({f for f in failures if f is not None})[:20],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", choices=["setup", "timed", "fixed", "traced"], required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, HERE)
    import speed
    import workloads  # stdlib only: the library is imported inside setup()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        probe = speed.SpeedProbe()
        probe.sample(speed.NEAR)
        t0 = perf_counter()
        workload.setup()
        t1 = perf_counter()
        probe.sample(speed.NEAR)
        result = {"setup_s": probe.scaled(t0, t1), "setup_raw_s": t1 - t0}
        if args.phase == "setup":
            print(json.dumps(result))
            return 0

        records: list = []
        times: list = []
        if args.phase == "timed":
            # whole passes only, so every pass and every run has the same op mix
            loop_t0 = perf_counter()
            passes = 0
            for ops in workload.passes():
                run_ops(workload, ops, records, times, probe=probe)
                passes += 1
                if perf_counter() - loop_t0 >= args.seconds:
                    break
            result["wall_s"] = perf_counter() - loop_t0
            result["passes"] = passes
            result["peak_rss_mb"] = peak_rss_mb()
            probe.sample(speed.NEAR)
            latencies: dict = {}
            raw: dict = {}
            for key, start, end in times:
                latencies.setdefault(key, []).append(probe.scaled(start, end))
                raw.setdefault(key, []).append(end - start)
            result["latencies"] = latencies
            result["raw_latencies"] = raw
            result["speed_samples"] = len(probe.took)
        else:
            ops = workload.trace_ops()
            tracer = None
            if args.phase == "traced":
                import tracing

                tracer = tracing.Tracer()
                tracer.install()
            before = _op_id_setter(tracer, workload) if tracer else None
            loop_t0 = perf_counter()
            run_ops(workload, ops, records, times, before)
            result["wall_s"] = perf_counter() - loop_t0
            if tracer is None:
                print(json.dumps(result))
                return 0
            tracer.op = "probe"
            import omegalarge
            import omegalarge.cli  # noqa: F401 - the cli probe calls through it

            for layer in workload.unused_layers:
                tracing.PROBES[layer](omegalarge)
            tracer.uninstall()
            tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-spans.jsonl"))
            result["per_layer"] = tracer.metrics()
            result["reuse_violations"] = before.violations

        if hasattr(workload, "served"):
            result["ops_per_sentence"] = workload.served
        import checks

        result.update(summarize(workload, records, checks.Checker(ROOT)))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _op_id_setter(tracer, workload):
    """Sets the tracer's op id before each op.  On oneshot-check it also
    counts apartness queries on a sentence object that an earlier op used:
    every CLI call must build its own sentence."""
    count = [0]

    def before(op):
        tracer.op = count[0]
        count[0] += 1

    before.violations = 0
    if workload.name != "oneshot-check":
        return before
    import omegalarge.formula as fm

    owners: dict = {}  # id(sentence) -> (weak reference, first op)

    def guard(orig):
        def holds_bounded(sentence, *args):
            entry = owners.get(id(sentence))
            if entry is None or entry[0]() is not sentence:
                owners[id(sentence)] = (weakref.ref(sentence), tracer.op)
            elif entry[1] != tracer.op and tracer.op != "probe":
                before.violations += 1
            return orig(sentence, *args)

        return holds_bounded

    tracer._patch(fm.Pi03Sentence, "holds_bounded", guard(fm.Pi03Sentence.holds_bounded))
    return before


if __name__ == "__main__":
    sys.exit(main())
