"""Spans and counters for the traced run, recorded from outside the library.

`install()` wraps public callables of `omegalarge`; `uninstall()` restores
them.  Module functions are wrapped in every module that bound them, because
consumers use `from .largeness import check_large` and look the name up in
their own module.  Class methods are wrapped once, on the class.

Span entry points get a span each: (id, name, start, end, parent, op, child
seconds, ticks, extra).  `holds_bounded` runs so often that it is folded
into its enclosing span as child time instead of getting spans of its own;
`theta_at`, `Budget.tick`, `FinSet` construction and `ColoringTable` lookups
are counted only.
"""

from __future__ import annotations

import json
from time import perf_counter

# span name -> (defining module, function name)
SPAN_FUNCS = {
    "cli.main": ("cli", "main"),
    "check_large": ("largeness", "check_large"),
    "verify_certificate": ("largeness", "verify_certificate"),
    "find_grouping": ("grouping", "find_grouping"),
    "em_extract": ("ramsey", "em_extract"),
    "pigeonhole_extract": ("extract", "pigeonhole_extract"),
    "verify_lower_bound": ("lowerbound", "verify_lower_bound"),
}
SPAN_METHODS = {
    "export_sentence": [("lowerbound", "CanonicalTree"), ("lowerbound", "BlockfreeView")],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [id, child seconds, ticks at entry]
        self.op = None
        self.ticks = 0
        self.apart_queries = 0
        self.apart_s = 0.0
        self.counts = {"theta_evals": 0, "finset_builds": 0, "coloring_lookups": 0}
        self._restore: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, tracer.ticks]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((
                    sid, name, t0, t1, parent, tracer.op, frame[1],
                    tracer.ticks - frame[2], extra(result) if extra and result is not None else None,
                ))

        return wrapper

    def _holds_bounded(self, fn):
        tracer = self

        def holds_bounded(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.apart_queries += 1
                tracer.apart_s += dt
                if tracer.stack:
                    tracer.stack[-1][1] += dt

        return holds_bounded

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _tick(self, fn):
        tracer = self

        def tick(budget, n=1):
            tracer.ticks += n
            return fn(budget, n)

        return tick

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        import omegalarge
        from omegalarge import budget, formula, sets

        modules = [omegalarge] + [
            importlib.import_module(f"omegalarge.{m}")
            for m in ("cli", "largeness", "grouping", "extract", "ramsey", "lowerbound")
        ]
        extras = {
            "find_grouping": lambda out: out.status,
            "export_sentence": lambda s: len(s.param_A.bits),
        }
        for name, (home, attr) in SPAN_FUNCS.items():
            orig = getattr(importlib.import_module(f"omegalarge.{home}"), attr)
            wrapped = self._span(name, orig, extras.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        for name, owners in SPAN_METHODS.items():
            for home, cls_name in owners:
                cls = getattr(importlib.import_module(f"omegalarge.{home}"), cls_name)
                self._patch(cls, name, self._span(name, getattr(cls, name), extras.get(name)))
        p03 = formula.Pi03Sentence
        self._patch(p03, "holds_bounded", self._holds_bounded(p03.holds_bounded))
        self._patch(p03, "theta_at", self._counted("theta_evals", p03.theta_at))
        self._patch(budget.Budget, "tick", self._tick(budget.Budget.tick))
        self._patch(sets.FinSet, "__post_init__", self._counted("finset_builds", sets.FinSet.__post_init__))
        self._patch(sets.ColoringTable, "__call__", self._counted("coloring_lookups", sets.ColoringTable.__call__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "child_s", "ticks", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        total = {}
        self_s = {}
        steps = {}
        for _, name, t0, t1, _, _, child_s, ticks, _ in self.spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_s)
            steps[name] = steps.get(name, 0) + ticks
        calls = sum(1 for s in self.spans if s[1] == "check_large")
        wasted = sum(s[7] for s in self.spans if s[1] == "find_grouping" and s[8] == "exhausted")
        find_steps = steps.get("find_grouping", 0)
        export_bits = sum(s[8] for s in self.spans if s[1] == "export_sentence")
        theta_evals = self.counts["theta_evals"]
        return {
            "formula.theta_evals": (theta_evals, "count"),
            "formula.apart_queries": (self.apart_queries, "count"),
            "formula.theta_per_query": (
                theta_evals / self.apart_queries if self.apart_queries else 0.0, "ratio"),
            "formula.apart_s": (self.apart_s, "s"),
            "largeness.calls": (calls, "count"),
            "largeness.search_steps": (steps.get("check_large", 0), "count"),
            "largeness.self_s": (self_s.get("check_large", 0.0), "s"),
            "largeness.verify_s": (total.get("verify_certificate", 0.0), "s"),
            "grouping.search_steps": (find_steps, "count"),
            "grouping.self_s": (self_s.get("find_grouping", 0.0), "s"),
            "grouping.wasted_step_share": (wasted / find_steps if find_steps else 0.0, "share"),
            "sets.finset_builds": (self.counts["finset_builds"], "count"),
            "sets.coloring_lookups": (self.counts["coloring_lookups"], "count"),
            "lowerbound.export_s": (total.get("export_sentence", 0.0), "s"),
            "lowerbound.export_bits": (export_bits, "count"),
            "lowerbound.verify_s": (total.get("verify_lower_bound", 0.0), "s"),
            "extract.pigeonhole_s": (total.get("pigeonhole_extract", 0.0), "s"),
            "ramsey.em_s": (total.get("em_extract", 0.0), "s"),
            "ramsey.em_steps": (steps.get("em_extract", 0), "count"),
            "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        }


# One fixed call per layer that a workload never reaches, so every layer
# reports a measured time on every workload.  Probes run after the workload's
# traced ops, under op id "probe", and are not counted as attempted ops.
def _probe_cli(ol):
    import io
    from contextlib import redirect_stdout

    with redirect_stdout(io.StringIO()):
        ol.cli.main(["formula", "parse", "x < y or z < y", "--format", "json"])


def _probe_grouping(ol):
    x = ol.FinSet.interval(3, 10)
    f = ol.ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    ol.find_grouping(x, f, ol.LSpec.card(2), ol.LSpec.card(2), ol.TOP, ol.Budget(1_000))


def _probe_lowerbound(ol):
    ol.verify_lower_bound(ol.tree(3, 1), mode="exhaustive")


def _probe_extract(ol):
    x = ol.FinSet.interval(3, 38)
    ol.pigeonhole_extract(x, ol.ColoringTable.from_function(x, 1, 2, lambda v: v % 2), 1, ol.TOP)


def _probe_ramsey(ol):
    x = ol.FinSet.interval(3, 12)
    f = ol.ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    ol.em_extract(x, f, 1, ol.TOP, ol.Budget(1_000), ol.EmConstants.scaled(1))


PROBES = {
    "cli": _probe_cli,
    "grouping": _probe_grouping,
    "lowerbound": _probe_lowerbound,
    "extract": _probe_extract,
    "ramsey": _probe_ramsey,
}
