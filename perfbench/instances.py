"""Seed-independent instance pools for the largeness decisions.

Every pool member is generated from a fixed pool seed and its (class,
index) key, so the pinned reference verdicts in `reference.json` stay valid
for every run seed; the run seed only chooses which members a run draws and
in which order.  Nothing here imports the library, so workers can build
inputs after the set-up clock starts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

POOL_SEED = 20240430
POOL_SIZE = 12

# theta texts handed to `--theta` / `parse`; "tree32" is the separation
# sentence exported by `tree(3, 2)`, whose table covers values up to 38
THETAS = {
    "simple": "x < y or z < y",
    "bq": "exists w < y . w * 2 = x or x < w",
}
TREE32_MAX = 38
THETA_KINDS = ("simple", "bq", "tree32")


@dataclass(frozen=True)
class Instance:
    key: str  # "<class>/<theta>/<index>", the reference-table key
    theta: str  # one of THETA_KINDS
    values: tuple[int, ...]
    n: int
    k: int

    def digest(self) -> str:
        text = f"{self.theta}|{self.n}|{self.k}|{','.join(map(str, self.values))}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dropped(rng: random.Random, lo: int, hi: int, p: float, keep_below: int) -> tuple[int, ...]:
    return tuple(v for v in range(lo, hi + 1) if v <= keep_below or rng.random() >= p)


# class name -> (theta kinds, generator); generators take (rng, theta, index)
def _small(rng, theta, i):
    size = 6 + i % 3
    return (3,) + tuple(sorted(rng.sample(range(4, 15), size - 1))), 1, 1 + i % 2


def _hi(rng, theta, lo, hi):
    return TREE32_MAX if theta == "tree32" else rng.randint(lo, hi)


def _n1k1(rng, theta, i):
    return _dropped(rng, 3, _hi(rng, theta, 38, 64), 0.15, 3), 1, 1


def _n1k2(rng, theta, i):
    return _dropped(rng, 3, _hi(rng, theta, 38, 64), 0.15, 3), 1, 2


def _n2sparse(rng, theta, i):
    return _dropped(rng, 3, _hi(rng, theta, 38, 44), 0.1, 3), 2, 1 + i % 2


def _n2dense(rng, theta, i):
    hi = _hi(rng, theta, 38, 46)
    return _dropped(rng, 3, hi, 0.03, 8), 2, 1


CLASSES = {
    "small": (("simple", "bq"), _small),
    "n1k1": (THETA_KINDS, _n1k1),
    "n1k2": (THETA_KINDS, _n1k2),
    "n2sparse": (THETA_KINDS, _n2sparse),
    "n2dense": (THETA_KINDS, _n2dense),
}

# decided at check time by the brute-force oracle instead of the pinned table
BRUTE_FORCE_CLASSES = ("small",)


def instance(cls: str, theta: str, index: int) -> Instance:
    kinds, gen = CLASSES[cls]
    if theta not in kinds:
        raise ValueError(f"class {cls} has no theta {theta}")
    rng = random.Random(f"{POOL_SEED}:{cls}:{theta}:{index}")
    values, n, k = gen(rng, theta, index)
    return Instance(f"{cls}/{theta}/{index}", theta, values, n, k)


def pool():
    """Every pool member, in a fixed order."""
    for cls, (kinds, _) in CLASSES.items():
        for theta in kinds:
            for i in range(POOL_SIZE):
                yield instance(cls, theta, i)
