"""Untimed answer checks, run after the timed loop.

Every positive answer is re-checked from its witness against freshly built
sentences (never the objects the timed ops used): certificates through
`verify_certificate(paranoid=True)`, groupings through `is_grouping` plus
a scan written here, transitive and homogeneous subsets by scans written
here.  Every verdict is compared with a reference:

- small largeness instances: `bf_large_t` from tests/oracles.py, computed
  here (independent of the library's search);
- the other pool instances: the table in reference.json, pinned from the
  seed commit by pin_reference.py (library answers, see that file);
- grouping, pigeonhole and transitive-subset negatives: brute-force oracles
  in this file.

`Checker.check()` returns one failure message (or None) per op record.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations

import instances
from workloads import EXTRACT_THETA, X38, coloring_table

HERE = os.path.dirname(os.path.abspath(__file__))


class Checker:
    def __init__(self, root: str):
        sys.path.insert(0, os.path.join(root, "tests"))
        import omegalarge as ol
        from oracles import bf_large_t

        self.ol = ol
        self.bf_large_t = bf_large_t
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.ref = json.load(fh)
        tree32 = ol.tree(3, 2).export_sentence().to_json()
        self.sentences = {
            "simple": ol.Pi03Sentence(ol.parse(instances.THETAS["simple"])),
            "bq": ol.Pi03Sentence(ol.parse(instances.THETAS["bq"])),
            "tree32": ol.Pi03Sentence.from_json(tree32),
            "top": ol.Pi03Sentence(ol.parse("true")),
        }
        self._bf: dict[str, bool] = {}
        self._verified: dict[tuple, bool] = {}
        self.x38 = tuple(range(X38[0], X38[1] + 1))

    # -- largeness decisions ---------------------------------------------

    def _reference_verdict(self, inst: instances.Instance) -> bool:
        cls = inst.key.split("/")[0]
        if cls in instances.BRUTE_FORCE_CLASSES:
            if inst.key not in self._bf:
                self._bf[inst.key] = self.bf_large_t(
                    inst.values, inst.n, inst.k, self.sentences[inst.theta])
            return self._bf[inst.key]
        entry = self.ref["largeness"][inst.key]
        if entry["digest"] != inst.digest():
            raise ValueError(f"{inst.key}: pool instance differs from the pinned one")
        return entry["verdict"] == "large"

    def _cert_ok(self, inst: instances.Instance, cert) -> bool:
        key = (inst.key, cert.to_json())
        if key not in self._verified:
            ol = self.ol
            spec = ol.LargenessSpec(inst.n, inst.k, self.sentences[inst.theta])
            self._verified[key] = ol.verify_certificate(
                ol.FinSet(inst.values), cert, spec, paranoid=True)
        return self._verified[key]

    def _large(self, rec: dict, status: str):
        inst = instances.instance(*_split_key(rec["key"]))
        if "payload" in rec:  # through the CLI: the exit-code contract too
            want_exit = {"large": 0, "not-large": 1}.get(status)
            if want_exit is None or rec["exit"] != want_exit or rec["payload"].get("exit") != want_exit:
                return f"{inst.key}: status {status} with exit {rec['exit']}"
            cert = rec["payload"].get("certificate")
            cert = self.ol.Certificate.from_obj(cert) if cert is not None else None
        else:
            cert = rec["cert"]
        if status == "large" and not self._cert_ok(inst, cert):
            return f"{inst.key}: certificate rejected"
        if (status == "large") != self._reference_verdict(inst):
            return f"{inst.key}: verdict {status} disagrees with the reference"
        return None

    # -- shared-sentence extras --------------------------------------------

    def _pigeonhole(self, rec: dict, status: str, colorings):
        ol = self.ol
        f = colorings[rec["coloring"]]
        color_of = dict(zip(f.domain.elements, f.table))
        if status == "found":
            out = rec["out"]
            sub = out.homogeneous.elements
            if not set(sub) <= set(self.x38) or {color_of[v] for v in sub} != {out.color}:
                return "pigeonhole: output not a homogeneous subset"
            spec = ol.LargenessSpec(1, 1, self.sentences[EXTRACT_THETA])
            if not ol.verify_certificate(ol.FinSet(sub), out.certificate, spec, paranoid=True):
                return "pigeonhole: certificate rejected"
            return None
        # a homogeneous large subset exists iff a whole color class is large
        # (largeness is closed under supersets)
        exists = any(
            self.bf_large_t(tuple(v for v in self.x38 if color_of[v] == c), 1, 1,
                            self.sentences[EXTRACT_THETA])
            for c in sorted(set(color_of.values()))
        )
        return "pigeonhole: absent but a color class is large" if exists else None

    def _export(self, rec: dict):
        want = self.ref["exports"][str(rec["base"])]
        if rec["bits_len"] != want["bits_len"] or rec["bits_sha256"] != want["sha256"]:
            return f"export tree({rec['base']},2): table differs from the pinned one"
        return None

    def _lowerbound(self, rec: dict):
        mode, base, rank = rec["op"]
        r = rec["report"]
        if mode == "exhaustive":
            # rank 1: the tree is [base, 2*base]; every nonempty subset is
            # enumerated and none may be a homogeneous large subset
            want = (self.ol.CONFIRMED, True, 2 ** (base + 1) - 1)
            got = (r.status, r.complete, r.checked_subsets)
        else:
            pinned = self.ref["lowerbound"][f"{mode}/{base}/{rank}"]
            want = (pinned["status"], pinned["complete"], pinned["sub_instances"], pinned["skipped"])
            got = (r.status, r.complete, r.sub_instances, r.skipped)
        return None if got == want else f"lower bound {mode} tree({base},{rank}): {got} != {want}"

    # -- grouping-search ---------------------------------------------------

    def _pair_colors(self, bits: int) -> dict:
        return dict(zip(combinations(self.x38, 2), coloring_table(bits)))

    def _find(self, rec: dict, status: str, find_bits):
        ol = self.ol
        if status not in ("found", "absent"):
            return None
        color = self._pair_colors(find_bits[rec["coloring"]])
        if status == "found":
            blocks = rec["blocks"]
            f = ol.ColoringTable(ol.FinSet(self.x38), 2, 2, coloring_table(find_bits[rec["coloring"]]))
            w = ol.GroupingWitness(tuple(ol.FinSet(b) for b in blocks), f)
            card2 = ol.LSpec.card(2)
            ok = (
                len(blocks) >= 2
                and all(len(b) >= 2 for b in blocks)
                and all(a[-1] < b[0] for a, b in zip(blocks, blocks[1:]))
                and all(
                    len({color[(u, v)] for u in a for v in b}) == 1
                    for a, b in combinations(blocks, 2)
                )
                and ol.is_grouping(w, card2, card2, self.sentences["top"])
            )
            return None if ok else "find_grouping: witness rejected"
        return "find_grouping: absent but a grouping exists" if _quad_exists(self.x38, color) else None

    def _em(self, rec: dict, status: str, em_bits):
        ol = self.ol
        sentence = self.sentences[EXTRACT_THETA]
        color = self._pair_colors(em_bits[rec["coloring"]])
        n = rec["n"]
        if status == "found":
            sub = rec["subset"]
            if not set(sub) <= set(self.x38) or not _transitive(sub, color):
                return "em_extract: output not a transitive subset"
            spec = ol.LargenessSpec(n, 1, sentence)
            if not ol.verify_certificate(ol.FinSet(sub), rec["certificate"], spec, paranoid=True):
                return "em_extract: certificate rejected"
            return None
        if status != "absent":
            return None
        if n == 1:
            exists = _transitive_large1_exists(self.x38, color, _apart_singletons(sentence))
        else:
            # [3,38] is the minimal interval large at exponent 2 above 3, so
            # it is its own only subset large at exponent 2
            exists = _transitive(self.x38, color) and self.bf_large_t(self.x38, 2, 1, sentence)
        return "em_extract: absent but a transitive large subset exists" if exists else None

    # -- dispatch ----------------------------------------------------------

    def check(self, records: list, workload) -> list:
        out = []
        for status, rec in records:
            if status == "error":
                out.append(rec.get("error", "error"))
                continue
            kind = rec["kind"]
            if kind == "large":
                msg = self._large(rec, status)
            elif kind == "pigeonhole":
                msg = self._pigeonhole(rec, status, workload.colorings)
            elif kind == "export":
                msg = self._export(rec)
            elif kind == "lowerbound":
                msg = self._lowerbound(rec)
            elif kind == "find":
                msg = self._find(rec, status, workload.find_bits)
            else:
                msg = self._em(rec, status, workload.em_bits)
            out.append(msg)
        return out


def _split_key(key: str):
    cls, theta, index = key.split("/")
    return cls, theta, int(index)


def _quad_exists(xs, color) -> bool:
    """Some {a<b} < {c<d} with all four cross pairs one color: the minimal
    shape of a card:2/card:2 grouping under TOP."""
    for a, b in combinations(xs, 2):
        for c, d in combinations([v for v in xs if v > b], 2):
            if color[(a, c)] == color[(a, d)] == color[(b, c)] == color[(b, d)]:
                return True
    return False


def _transitive(sub, color) -> bool:
    return not any(
        color[(i, j)] == color[(j, k)] != color[(i, k)] for i, j, k in combinations(sub, 3)
    )


def _apart_singletons(sentence):
    theta = sentence.theta_at
    memo: dict = {}

    def apart(a: int, b: int) -> bool:
        # {a} < {b}: forall v < a exists w < b forall u < b theta(v, w, u)
        if (a, b) not in memo:
            memo[(a, b)] = all(
                any(all(theta(v, w, u) for u in range(b)) for w in range(b))
                for v in range(a)
            )
        return memo[(a, b)]

    return apart


def _transitive_large1_exists(xs, color, apart) -> bool:
    """A transitive set {m} + m singletons, pairwise apart, inside xs.

    Large at exponent 1 needs m blocks above the minimum m; blocks shrink to
    singletons without losing apartness or transitivity.
    """

    def extend(chosen: list, need: int) -> bool:
        if need == 0:
            return True
        for v in xs:
            if v <= chosen[-1]:
                continue
            if any(color[(i, j)] == color[(j, v)] != color[(i, v)]
                   for i, j in combinations(chosen, 2)):
                continue
            if not all(apart(u, v) for u in chosen[1:]):
                continue
            chosen.append(v)
            if extend(chosen, need - 1):
                return True
            chosen.pop()
        return False

    return any(extend([m], m) for m in xs)
