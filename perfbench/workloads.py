"""The three benchmark workloads: inputs, op passes and op execution.

A workload runs in a fresh single-threaded process.  `setup()` imports the
library and builds every program-side input; the caller times it.  `passes()`
yields the closed-loop op schedule one pass at a time.  Every pass holds the
same ops (in a seeded order where order matters), so each op is timed once
per pass and a run stops at a pass boundary.  `op_key()` names an op across
passes.  `execute()` performs one op and returns a small record for the
untimed checks.

Each op records a status.  Definitive statuses are listed in DEFINITIVE;
anything else (exhausted, overflow, inconclusive, error) counts against
`decided_share`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout

import instances

DEFINITIVE = {"large", "not-large", "found", "absent", "confirmed", "counterexample", "built"}

X38 = (3, 38)  # the interval every coloring workload draws on
EXTRACT_THETA = "simple"  # the sentence of the pigeonhole and em_extract ops
PAIRS38 = (38 - 3 + 1) * (38 - 3) // 2  # entries of a pair coloring of [3,38]


class Workload:
    name = ""
    # entry points the traced run probes once because the workload never
    # calls them (see tracing.PROBES)
    unused_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{seed}:{self.name}")

    def setup(self) -> None:
        raise NotImplementedError

    def passes(self):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def op_key(self, op) -> str:
        raise NotImplementedError

    def trace_ops(self) -> list:
        """The fixed op list of a traced run: the first pass."""
        return next(iter(self.passes()))

    def settle(self, record: dict) -> dict:
        """Shrink an op record to what the checks need (called untimed)."""
        return record


def _shuffled(rng: random.Random, ops: list) -> list:
    out = list(ops)
    rng.shuffle(out)
    return out


def _pass_instances(counts: dict) -> list:
    return [
        instances.instance(cls, theta, i)
        for (cls, theta), count in counts.items()
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# oneshot-check: `large check --format json` through cli.main, every call cold
# ---------------------------------------------------------------------------

# (class, theta) -> pool members per pass.  Heavy classes get fewer members so
# a pass stays a few seconds long; the cheap classes make up most of the 100
# ops, so p50 falls among them and p90 among the heavy ones.
ONESHOT_PASS = {
    ("small", "simple"): 12, ("small", "bq"): 12,
    ("n1k1", "simple"): 12, ("n1k1", "bq"): 12, ("n1k1", "tree32"): 12,
    ("n1k2", "simple"): 12, ("n1k2", "bq"): 4, ("n1k2", "tree32"): 2,
    ("n2sparse", "simple"): 4, ("n2sparse", "bq"): 2, ("n2sparse", "tree32"): 8,
    ("n2dense", "simple"): 4, ("n2dense", "bq"): 2, ("n2dense", "tree32"): 2,
}


class OneshotCheck(Workload):
    name = "oneshot-check"
    unused_layers = ("grouping", "lowerbound", "extract", "ramsey")

    def setup(self) -> None:
        import omegalarge.cli
        from omegalarge import tree

        self.cli = omegalarge.cli
        theta_file = os.path.join(self.workdir, "tree32.json")
        with open(theta_file, "w") as fh:
            fh.write(tree(3, 2).export_sentence().to_json())
        self.ops = []
        for inst in _pass_instances(ONESHOT_PASS):
            set_file = os.path.join(self.workdir, inst.key.replace("/", "-") + ".json")
            with open(set_file, "w") as fh:
                json.dump([str(v) for v in inst.values], fh)
            argv = ["large", "check", "--set", set_file, "--n", str(inst.n),
                    "--k", str(inst.k), "--format", "json"]
            if inst.theta == "tree32":
                argv += ["--theta-file", theta_file]
            else:
                argv += ["--theta", instances.THETAS[inst.theta]]
            self.ops.append((inst, argv))

    def passes(self):
        while True:
            yield _shuffled(self.rng, self.ops)

    def op_key(self, op) -> str:
        return op[0].key

    def execute(self, op):
        inst, argv = op
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.cli.main(argv)
        payload = json.loads(out.getvalue())
        status = payload.get("result", "error")
        return status, {"kind": "large", "key": inst.key, "exit": code, "payload": payload}


# ---------------------------------------------------------------------------
# shared-sentence: library calls that reuse one sentence object per theta
# ---------------------------------------------------------------------------

SHARED_CHECKS = {
    ("small", "simple"): 8, ("small", "bq"): 8,
    ("n1k1", "simple"): 8, ("n1k1", "bq"): 8, ("n1k1", "tree32"): 8,
    ("n1k2", "simple"): 8, ("n1k2", "bq"): 4, ("n1k2", "tree32"): 8,
    ("n2sparse", "simple"): 8, ("n2sparse", "bq"): 2, ("n2sparse", "tree32"): 8,
    ("n2dense", "simple"): 8, ("n2dense", "bq"): 2, ("n2dense", "tree32"): 8,
}
PIGEONHOLE_PER_PASS = 4
EXPORT_BASES = (3, 4)
LOWERBOUND_OPS = (("exhaustive", 3, 1), ("exhaustive", 4, 1), ("pruned", 3, 3))


class SharedSentence(Workload):
    name = "shared-sentence"
    unused_layers = ("cli", "grouping", "ramsey")

    def setup(self) -> None:
        import omegalarge as ol

        self.ol = ol
        self.sentences = {
            "simple": ol.Pi03Sentence(ol.parse(instances.THETAS["simple"])),
            "bq": ol.Pi03Sentence(ol.parse(instances.THETAS["bq"])),
            "tree32": ol.tree(3, 2).export_sentence(),
        }
        self.served = {name: 0 for name in self.sentences}
        self.checks = [
            (inst, ol.FinSet(inst.values), ol.LargenessSpec(inst.n, inst.k, self.sentences[inst.theta]))
            for inst in _pass_instances(SHARED_CHECKS)
        ]
        self.x38 = ol.FinSet.interval(*X38)
        crng = random.Random(f"{self.seed}:{self.name}:colorings")
        self.colorings = [
            ol.ColoringTable.random(self.x38, 1, 2, crng) for _ in range(PIGEONHOLE_PER_PASS)
        ]

    def passes(self):
        ops = [("check",) + c for c in self.checks]
        ops += [("pigeonhole", j) for j in range(PIGEONHOLE_PER_PASS)]
        ops += [("export", b) for b in EXPORT_BASES]
        ops += [("lowerbound",) + lb for lb in LOWERBOUND_OPS]
        while True:
            yield _shuffled(self.rng, ops)

    def op_key(self, op) -> str:
        return op[1].key if op[0] == "check" else "/".join(map(str, op))

    def execute(self, op):
        ol = self.ol
        kind = op[0]
        if kind == "check":
            inst, x, spec = op[1:]
            self.served[inst.theta] += 1
            cert = ol.check_large(x, spec)
            status = "large" if cert is not None else "not-large"
            return status, {"kind": "large", "key": inst.key, "cert": cert}
        if kind == "pigeonhole":
            self.served[EXTRACT_THETA] += 1
            f = self.colorings[op[1]]
            try:
                out = ol.pigeonhole_extract(self.x38, f, 1, self.sentences[EXTRACT_THETA])
            except ol.ExtractionFailure:
                return "absent", {"kind": "pigeonhole", "coloring": op[1], "out": None}
            return "found", {"kind": "pigeonhole", "coloring": op[1], "out": out}
        if kind == "export":
            sentence = ol.tree(op[1], 2).export_sentence()
            return "built", {"kind": "export", "base": op[1], "sentence": sentence}
        mode, base, rank = op[1:]
        report = ol.verify_lower_bound(ol.tree(base, rank), mode=mode)
        return report.status, {"kind": "lowerbound", "op": (mode, base, rank), "report": report}

    def settle(self, record: dict) -> dict:
        if record["kind"] == "export":
            bits = record.pop("sentence").param_A.bits
            record["bits_len"] = len(bits)
            record["bits_sha256"] = hashlib.sha256(bits.encode()).hexdigest()
        return record


# ---------------------------------------------------------------------------
# grouping-search: find_grouping under TOP, interleaved with em_extract
# ---------------------------------------------------------------------------

# Outcomes at budget 2k match those at criterion 9's 20k: the walk finds a
# grouping within a few dozen steps or not at all, so the lower budget only
# makes each exhausted search cheaper and lets a run hold more colorings.
FIND_BUDGET = 2_000
EM_BUDGET = 300
FIND_PER_PASS = 256
EM_PER_PASS = 8  # alternating n = 1, 2, spread evenly through the pass


def coloring_table(bits: int) -> tuple[int, ...]:
    """Pair colors of [3,38] in lexicographic order, one bit each."""
    return tuple((bits >> i) & 1 for i in range(PAIRS38))


class GroupingSearch(Workload):
    name = "grouping-search"
    unused_layers = ("cli", "lowerbound", "extract")

    def setup(self) -> None:
        import omegalarge as ol

        self.ol = ol
        self.x38 = ol.FinSet.interval(*X38)
        self.card2 = ol.LSpec.card(2)
        self.em_sentence = ol.Pi03Sentence(ol.parse(instances.THETAS[EXTRACT_THETA]))
        # The find colorings are a fixed pool, like the largeness instances, so
        # every run has the same share of searches that exhaust; the run seed
        # draws the em colorings and orders the finds.
        prng = random.Random(f"{instances.POOL_SEED}:{self.name}:find")
        self.find_bits = [prng.getrandbits(PAIRS38) for _ in range(FIND_PER_PASS)]
        crng = random.Random(f"{self.seed}:{self.name}:em")
        self.em_bits = [crng.getrandbits(PAIRS38) for _ in range(EM_PER_PASS)]
        self.find_tables = [self._table(b) for b in self.find_bits]
        self.em_tables = [self._table(b) for b in self.em_bits]

    def _table(self, bits: int):
        return self.ol.ColoringTable(self.x38, 2, 2, coloring_table(bits))

    def passes(self):
        per_em = FIND_PER_PASS // EM_PER_PASS
        while True:
            finds = _shuffled(self.rng, [("find", i) for i in range(FIND_PER_PASS)])
            ops = []
            for j in range(EM_PER_PASS):
                ops += finds[j * per_em:(j + 1) * per_em]
                ops.append(("em", j, 1 + j % 2))
            yield ops

    def op_key(self, op) -> str:
        return "/".join(map(str, op))

    def execute(self, op):
        ol = self.ol
        if op[0] == "find":
            out = ol.find_grouping(
                self.x38, self.find_tables[op[1]], self.card2, self.card2, ol.TOP,
                ol.Budget(FIND_BUDGET),
            )
            return out.status, {"kind": "find", "coloring": op[1], "out": out}
        _, idx, n = op
        out = ol.em_extract(
            self.x38, self.em_tables[idx], n, self.em_sentence,
            ol.Budget(EM_BUDGET), ol.EmConstants.scaled(n),
        )
        return out.status, {"kind": "em", "coloring": idx, "n": n, "out": out}

    def settle(self, record: dict) -> dict:
        # keep only what the checks read
        out = record.pop("out")
        if record["kind"] == "find":
            record["blocks"] = (
                [b.elements for b in out.witness.blocks] if out.witness is not None else None
            )
        else:
            record["subset"] = out.subset.elements if out.subset is not None else None
            record["certificate"] = out.certificate
        return record


WORKLOADS = {w.name: w for w in (OneshotCheck, SharedSentence, GroupingSearch)}
