"""Verdicts and reasons of `is_n_dense` and `is_large_gamma`, pinned from the
two-loop implementation that preceded the shared density recursion.

Each group is one mode, sentence, statement and entry point at one level;
it pins the verdict letters (t, f, i) over its sets in order and a digest of
the reasons.  Sampled groups run seeds 0-7 in turn, so a change in the order
of the generator's draws shows.  A ceiling the earlier code raised as
`CeilingExceeded` is pinned as `inconclusive` with the ceiling's message.
The groups of the formula psi0 were pinned later, from the tree interpreter
that evaluated psi0 before the compiled function did.  One entry of each
group in `REORDERED` was re-pinned, from `i` to `f`, when exact density
began to try the cheap clauses first.

Regenerate with `PYTHONPATH=src python tests/test_density_parity.py`.
"""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from omegalarge.formula import TOP, CeilingExceeded, Pi03Sentence, RtLikeStatement, parse
from omegalarge.ramsey import _EXHAUSTIVE, Mode, _failed_clause, is_large_gamma, is_n_dense
from omegalarge.sets import FinSet

PINNED = Path(__file__).with_name("density_parity.json")

STATEMENTS = {
    "true": RtLikeStatement(1, 1, "true"),
    "rt12": RtLikeStatement(1, 2, "homogeneous"),
    "rt22": RtLikeStatement(2, 2, "homogeneous"),
    "em": RtLikeStatement(2, 2, "transitive"),
}
SENTENCES = {"top": TOP, "theta": Pi03Sentence(parse("x < y or z < y"))}
# "the point coloring is constant", as a formula over the coded table
FORMULA = RtLikeStatement(1, 2, parse("forall i < a . forall j < a . (i in A -> j in A)"))
SEEDS = range(8)
TRIALS = 3


def _subsets(hi: int) -> list[FinSet]:
    return [FinSet(s) for n in range(1, hi - 1) for s in combinations(range(3, hi + 1), n)]


def groups():
    """(name, entry point, statement, sentence, level, modes, sets) of every
    group.  Exact groups run every nonempty subset of [3,9]; sampled groups
    those of [3,8].  `gamma large` at r = 0 over pairs is left out: with
    every subset large it runs all 2^15 colorings of each 6-element set."""
    exact, sampled = _subsets(9), _subsets(8)
    for sname, sentence in SENTENCES.items():
        for gname, statement in STATEMENTS.items():
            for level in range(3):
                for entry in ("dense", "large"):
                    for kind in ("exact", "sampled"):
                        if (kind, entry, level, statement.arity) == ("exact", "large", 0, 2):
                            continue
                        modes = [Mode()] if kind == "exact" else [Mode("sampled", s, TRIALS) for s in SEEDS]
                        sets = exact if kind == "exact" else sampled
                        name = f"{kind}-{sname}-{gname}-{entry}{level}"
                        yield name, entry, statement, sentence, level, modes, sets
    for entry, level in (("large", 0), ("large", 1), ("dense", 1)):
        yield f"exact-top-formula-{entry}{level}", entry, FORMULA, TOP, level, [Mode()], exact


def verdicts(entry, statement, sentence, level, modes, sets):
    out = []
    for mode in modes:
        for z in sets:
            if entry == "dense":
                out.append(is_n_dense(z, level, sentence, statement, mode))
            else:
                out.append(is_large_gamma(z, level, 1, sentence, statement, mode))
    return out


def summary(vs) -> list[str]:
    letters = "".join(v.value[0] for v in vs)
    digest = hashlib.sha256("\n".join(v.reason for v in vs).encode()).hexdigest()[:16]
    return [letters, digest]


GROUPS = list(groups())
GROUP_SETS = {g[0]: g[-1] for g in GROUPS}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_the_pinned_table_names_every_group(pinned):
    assert sorted(pinned) == sorted(g[0] for g in GROUPS)


@pytest.mark.parametrize("group", GROUPS, ids=[g[0] for g in GROUPS])
def test_verdicts_and_reasons_match_the_pinned_table(group, pinned):
    name, *spec = group
    assert summary(verdicts(*spec)) == pinned[name]


# Exact density tries the cheap clauses (b)-(d) before the statement's
# colorings (a).  That changed one pinned entry in each of these groups: the
# 7-element set [3,9], whose 2^21 pair colorings pass the coloring ceiling,
# read inconclusive when (a) came first; clause (b) refutes it.
REORDERED = [
    f"exact-{s}-{g}-dense{level}" for s in ("top", "theta") for g in ("rt22", "em") for level in (1, 2)
]


@pytest.mark.parametrize("name", REORDERED)
def test_a_cheap_clause_refutes_the_set_the_colorings_cannot(name, pinned):
    _, sname, gname, level = name.split("-")
    sentence, statement, level = SENTENCES[sname], STATEMENTS[gname], int(level[-1])
    z = FinSet(tuple(range(3, 10)))
    assert pinned[name][0][126] == "f" and GROUP_SETS[name][126] == z
    with pytest.raises(CeilingExceeded):
        _EXHAUSTIVE.colorings(z, statement)

    def dense(y, m):
        return is_n_dense(y, m, sentence, statement).value == "true"

    assert _failed_clause(z, level, sentence, statement, _EXHAUSTIVE, dense) == "b"
    assert is_n_dense(z, level, sentence, statement).value == "false"


if __name__ == "__main__":
    table = {name: summary(verdicts(*spec)) for name, *spec in GROUPS}
    PINNED.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
