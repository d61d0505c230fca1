"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its stated time budget.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random
import time
from itertools import combinations

from omegalarge.budget import Budget
from omegalarge.extract import pigeonhole_extract
from omegalarge.formula import (
    TOP,
    Pi03Sentence,
    PrefixedSentence,
    QuantStep,
    SecondOrderParam,
    evaluate,
    parse,
    weakly_pi04_transform,
)
from omegalarge.grouping import (
    EXHAUSTED,
    FOUND,
    GroupingWitness,
    LSpec,
    find_grouping,
    is_grouping,
)
from omegalarge.largeness import (
    LargenessSpec,
    check_large,
    is_minimal,
    minimal_large_interval,
    t_apart,
    verify_certificate,
)
from omegalarge.lowerbound import CONFIRMED, tree, verify_lower_bound
from omegalarge.ramsey import EmConstants, bounds_table, em_extract
from omegalarge.sets import ColoringTable, FinSet

from oracles import BruteForcePlain, naive_eval, plain_decompositions, random_formula

X38 = FinSet.interval(3, 38)
SEED = 20260809


class Clock:
    def __init__(self, criterion: int, budget_s: float):
        self.criterion = criterion
        self.budget_s = budget_s
        self.start = time.monotonic()

    def done(self, detail: str) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed <= self.budget_s, (
            f"criterion {self.criterion} exceeded its {self.budget_s}s budget: {elapsed:.1f}s"
        )
        print(f"ACCEPTANCE {self.criterion}: PASS ({detail}; {elapsed:.1f}s of {self.budget_s:.0f}s)")


def test_criterion_1_top_collapse_oracle_equivalence():
    clock = Clock(1, 60)
    universe = tuple(range(3, 17))
    oracle = BruteForcePlain(universe)
    specs = [(n, k) for n in (0, 1, 2) for k in (1, 2)]
    mismatches = 0
    checked = 0
    for size in range(len(universe) + 1):
        for vals in combinations(universe, size):
            x = FinSet(vals)
            for n, k in specs:
                want = oracle.is_large(vals, n, k)
                got = check_large(x, LargenessSpec(n, k, TOP)) is not None
                checked += 1
                if got != want:
                    mismatches += 1
    assert mismatches == 0
    clock.done(f"{checked} set/spec decisions against brute force, 0 mismatches")


def test_criterion_2_minimal_interval_facts():
    clock = Clock(2, 1)
    m1 = minimal_large_interval(3, 1)
    assert m1.elements == (3, 4, 5, 6)
    m2 = minimal_large_interval(3, 2)
    assert m2.elements == tuple(range(3, 39)) and len(m2) == 36
    assert is_minimal(m1, 1) and is_minimal(m2, 2)
    t = tree(3, 2)
    assert t.cardinality() == 36 and t.max_value() == 38
    clock.done("exact interval facts and tree recurrences agree")


def test_criterion_3_pigeonhole_extractor():
    clock = Clock(3, 120)
    rng = random.Random(SEED)
    spec_out = LargenessSpec(1, 1, TOP)
    successes = 0
    for _ in range(1000):
        f = ColoringTable.random(X38, 1, 3, rng)
        out = pigeonhole_extract(X38, f, 1, TOP)
        assert all(f(v) == out.color for v in out.homogeneous)
        assert verify_certificate(out.homogeneous, out.certificate, spec_out)
        successes += 1
    assert successes == 1000
    clock.done("1000/1000 random colorings homogenized and re-verified")


def test_criterion_4_apartness_laws():
    clock = Clock(4, 60)
    thetas = [
        TOP,
        Pi03Sentence(parse("y = x + 1 and true")),
        Pi03Sentence(parse("x < y or z < y")),
        Pi03Sentence(parse("exists w < y . w * 2 = x or x < w")),
        tree(3, 2).export_sentence(),
    ]
    rng = random.Random(SEED + 1)
    elems38 = X38.elements
    violations = 0
    checks = 0
    for theta in thetas:
        for _ in range(2000):
            vals = sorted(rng.sample(elems38, 6))
            a, b, c = FinSet(tuple(vals[0:2])), FinSet(tuple(vals[2:4])), FinSet(tuple(vals[4:6]))
            checks += 1
            if t_apart(a, b, theta) and t_apart(b, c, theta):
                if not t_apart(a, c, theta):
                    violations += 1
            if t_apart(a, b, theta):
                sub_a = FinSet(tuple(v for v in a if rng.randrange(2)) or (a.elements[0],))
                sub_b = FinSet(tuple(v for v in b if rng.randrange(2)) or (b.elements[-1],))
                if not t_apart(sub_a, sub_b, theta):
                    violations += 1
    assert violations == 0
    clock.done(f"{checks} random triples over 5 sentences, 0 law violations")


def test_criterion_5_block_structure_lemma_suite():
    clock = Clock(5, 120)
    t31, t32 = tree(3, 1), tree(3, 2)

    # unique decomposition, exhaustively
    for t in (t31, t32):
        found = plain_decompositions(t.materialize().elements, t.rank)
        assert len(found) == 1
        assert list(found[0]) == [c.materialize().elements for c in t.children()]

    # boundary shortcut == apartness: exhaustive at rank 1
    s31 = t31.export_sentence()
    elems = t31.materialize().elements
    subsets = [FinSet(s) for size in range(1, 5) for s in combinations(elems, size)]
    for a in subsets:
        for b in subsets:
            if a.maximum < b.minimum:
                assert t31.apart_shortcut(a, b) == t_apart(a, b, s31)

    # boundary shortcut == apartness: 2000 samples at rank 2
    rng = random.Random(SEED + 2)
    s32 = t32.export_sentence()
    elems32 = t32.materialize().elements
    for _ in range(2000):
        vals = sorted(rng.sample(elems32, rng.randrange(2, 8)))
        cut = rng.randrange(1, len(vals))
        a, b = FinSet(tuple(vals[:cut])), FinSet(tuple(vals[cut:]))
        assert t32.apart_shortcut(a, b) == t_apart(a, b, s32)

    # separation predicate locality on level-1 blocks, exhaustive
    from omegalarge.lowerbound import CanonicalTree

    for child in t32.children():
        sub = CanonicalTree(child.base, child.rank)
        se = sub.materialize().elements
        for x in se:
            for y in se:
                for z in se:
                    assert t32.separates(x, y, z) == sub.separates(x, y, z)

    # the blockfree view is the minimal set one rank down
    view = t32.zero_blockfree().materialize()
    assert view.elements == (3, 4, 9, 19)
    assert is_minimal(view, 1)

    # self-largeness with the canonical children as witness blocks
    cert = check_large(t32.materialize(), LargenessSpec(2, 1, s32))
    assert cert is not None
    node = cert.blocks[0].cert
    xs = t32.materialize().elements
    assert [(xs[b.lo], xs[b.hi - 1]) for b in node.children] == [(4, 8), (9, 18), (19, 38)]
    clock.done("decomposition unique, shortcut exact, locality, blockfree, self-largeness")


def test_criterion_6_lower_bound_rank_one():
    clock = Clock(6, 5)
    for base in (3, 5):
        t = tree(base, 1)
        report = verify_lower_bound(t, mode="exhaustive")
        assert report.status == CONFIRMED and report.complete
        # the color pattern: head gets 1, every other element 0
        mat = t.materialize()
        assert t.parity_color(mat.minimum) == 1
        assert all(t.parity_color(v) == 0 for v in mat if v != mat.minimum)
    clock.done("exhaustive over both rank-1 instances; color pattern exact")


def test_criterion_7_bounds_table_exactness():
    clock = Clock(7, 1)
    rows = bounds_table(50)
    one = rows[1]
    assert one.pigeonhole == 2
    assert one.ads == 8
    assert one.lower == 1
    assert one.em == 16777217
    assert one.rt22 == (16 ** 6 + 1) ** 8
    for row in rows[1:]:
        assert row.lower < row.pigeonhole
    clock.done("row 1 exact including the bignum; lower < pigeonhole up to 50")


def test_criterion_8_formula_engine_oracle():
    clock = Clock(8, 30)
    rng = random.Random(SEED + 3)
    agreements = 0
    for _ in range(10_000):
        phi = random_formula(rng, ["x", "y"], rng.randrange(1, 9))
        env = {"x": rng.randrange(17), "y": rng.randrange(17)}
        a = rng.randrange(5)
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
        want = naive_eval(phi, env, a, bits)
        got = evaluate(phi, env, a=a, param=SecondOrderParam(bits))
        assert got == want
        agreements += 1

    shapes = 0
    for i in range(20):
        matrix = parse(f"x + y < z + {i} or {i} < x")
        sentence = PrefixedSentence(
            (QuantStep("exists", "x"), QuantStep("forall", "y"), QuantStep("exists", "z")),
            matrix,
        )
        out = weakly_pi04_transform(sentence)
        kinds = [(q.kind, q.bound) for q in out.prefix]
        assert kinds == [
            ("exists", None),
            ("forall", None),
            ("exists", "x"),
            ("forall", "y"),
            ("exists", None),
        ]
        shapes += 1
    assert agreements == 10_000 and shapes == 20
    clock.done("10000 evaluator agreements; 20 transforms in exact prefix shape")


def _mutated_witnesses(rng: random.Random):
    """Valid grouping plus one broken condition, cycling all four kinds."""
    l0 = LSpec.largeness(LargenessSpec(1, 1, TOP))
    l1 = LSpec.card(2)
    offset = rng.randrange(0, 3)
    flip = rng.randrange(2)
    blocks = (
        FinSet(tuple(range(4 + offset, 9 + offset))),
        FinSet(tuple(range(9 + offset, 19 + offset))),
    )
    cross = {(x, y): flip for x in blocks[0] for y in blocks[1]}
    f = ColoringTable.from_function(
        X38, 2, 2, lambda x, y: cross.get((x, y), (x + y + flip) % 2)
    )
    good = GroupingWitness(blocks, f)
    kind = rng.randrange(4)
    if kind == 0:
        # break block largeness, keep everything else
        small = FinSet(blocks[0].elements[:2])
        return GroupingWitness((small, blocks[1]), f), l0, l1, TOP
    if kind == 1:
        # break the transversal count
        return GroupingWitness((blocks[0],), f), l0, l1, TOP
    if kind == 2:
        # break cross-monochromaticity with a single repainted pair
        pair = (blocks[0].elements[rng.randrange(5)], blocks[1].elements[rng.randrange(10)])
        g = ColoringTable.from_function(
            X38, 2, 2, lambda x, y: 1 - flip if (x, y) == pair else cross.get((x, y), (x + y + flip) % 2)
        )
        return GroupingWitness(blocks, g), l0, l1, TOP
    # break apartness via a hostile sentence
    return good, l0, l1, Pi03Sentence(parse("y < x"))


def test_criterion_9_grouping_soundness():
    clock = Clock(9, 120)
    rng = random.Random(SEED + 4)
    l0, l1 = LSpec.card(2), LSpec.card(2)
    found = 0
    for _ in range(500):
        f = ColoringTable.random(X38, 2, 2, rng)
        out = find_grouping(X38, f, l0, l1, TOP, Budget(20_000))
        assert out.status != EXHAUSTED  # the minimal-block walk always decides
        if out.status == FOUND:
            found += 1
            assert is_grouping(out.witness, l0, l1, TOP)
    rejected = 0
    for _ in range(500):
        witness, m0, m1, sentence = _mutated_witnesses(rng)
        assert not is_grouping(witness, m0, m1, sentence)
        rejected += 1
    assert rejected == 500
    clock.done(
        f"{found}/500 searches succeeded, all validated, none exhausted; 500/500 mutants rejected"
    )


def test_criterion_10_transitive_extractor():
    clock = Clock(10, 300)
    rng = random.Random(SEED + 5)
    spec_out = LargenessSpec(1, 1, TOP)
    successes = failures = 0
    for _ in range(200):
        f = ColoringTable.random(X38, 2, 2, rng)
        out = em_extract(X38, f, 1, TOP, Budget(300_000), EmConstants.scaled(1))
        if out.status == FOUND:
            successes += 1
            # em_extract re-validates internally; check once more from here
            assert verify_certificate(out.subset, out.certificate, spec_out)
            table = {(u, v): f(u, v) for u, v in combinations(out.subset.elements, 2)}
            e = out.subset.elements
            for i in range(len(e)):
                for j in range(i + 1, len(e)):
                    for k in range(j + 1, len(e)):
                        assert not (
                            table[(e[i], e[j])] == table[(e[j], e[k])] != table[(e[i], e[k])]
                        )
        else:
            failures += 1
            assert out.status == "exhausted", f"non-budget failure: {out.status} at {out.stage}"
    clock.done(f"{successes} successes all re-validated, {failures} budget exhaustions")
