"""Regenerate reference.json: the pinned answers the checks compare against.

    python3 perfbench/pin_reference.py

Run from the root of a checkout at the commit whose answers are pinned.  The
largeness verdicts come from the library's exhaustive search; each entry
records what else backs it:

- "certificate": large, and the certificate passed verify_certificate with
  paranoid=True on a separately built sentence;
- "plain-not-large": not large, and the set is not even plainly large by the
  greedy checker in this file (largeness under a sentence implies plain
  largeness);
- "library": not large on the library's word alone.

Export digests and the pruned lower-bound report are library outputs too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import instances  # noqa: E402
import omegalarge as ol  # noqa: E402


def plain_large(values: tuple[int, ...], n: int, k: int) -> bool:
    """Greedy leftmost-minimal blocks, complete for plain largeness."""

    def end(pos: int, n: int):
        if pos >= len(values):
            return None
        if n == 0:
            return pos + 1
        q = pos + 1
        for _ in range(values[pos]):
            q = end(q, n - 1)
            if q is None:
                return None
        return q

    pos = 0
    for _ in range(k):
        pos = end(pos, n)
        if pos is None:
            return False
    return True


def sentence(theta: str):
    if theta == "tree32":
        return ol.Pi03Sentence.from_json(ol.tree(3, 2).export_sentence().to_json())
    return ol.Pi03Sentence(ol.parse(instances.THETAS[theta]))


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    largeness = {}
    for inst in instances.pool():
        if inst.key.split("/")[0] in instances.BRUTE_FORCE_CLASSES:
            continue
        x = ol.FinSet(inst.values)
        cert = ol.check_large(x, ol.LargenessSpec(inst.n, inst.k, sentence(inst.theta)))
        if cert is not None:
            spec = ol.LargenessSpec(inst.n, inst.k, sentence(inst.theta))
            if not ol.verify_certificate(x, cert, spec, paranoid=True):
                raise SystemExit(f"{inst.key}: certificate rejected")
            verdict, basis = "large", "certificate"
        else:
            verdict = "not-large"
            basis = "library" if plain_large(inst.values, inst.n, inst.k) else "plain-not-large"
        largeness[inst.key] = {"digest": inst.digest(), "verdict": verdict, "basis": basis}
        print(inst.key, verdict, basis, flush=True)
    exports = {}
    for base in (3, 4):
        bits = ol.tree(base, 2).export_sentence().param_A.bits
        exports[str(base)] = {"bits_len": len(bits),
                              "sha256": hashlib.sha256(bits.encode()).hexdigest()}
    r = ol.verify_lower_bound(ol.tree(3, 3), mode="pruned")
    lowerbound = {"pruned/3/3": {"status": r.status, "complete": r.complete,
                                 "sub_instances": r.sub_instances, "skipped": r.skipped}}
    out = {
        "source": f"pinned from commit {commit} by perfbench/pin_reference.py",
        "largeness": largeness,
        "exports": exports,
        "lowerbound": lowerbound,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
