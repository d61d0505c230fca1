import random
from itertools import combinations, islice, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge import grouping
from omegalarge.budget import Budget
from omegalarge.formula import TOP, Pi03Sentence, parse
from omegalarge.grouping import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    GroupingWalk,
    GroupingWitness,
    MalformedWitness,
    find_grouping,
    find_homogeneous,
    find_transitive,
    is_grouping,
)
from omegalarge.largeness import LargenessSpec, PreconditionError, check_large, verify_certificate
from omegalarge.sets import ColoringTable, FinSet

from oracles import BruteForcePlain, recursive_grouping_witnesses, recursive_include_first_dfs


def pair_coloring(domain, fn):
    return ColoringTable.from_function(domain, 2, 2, fn)


def interval(lo, hi):
    return FinSet.interval(lo, hi)


L0_OMEGA = LargenessSpec(1, 1, TOP)


def test_is_grouping_vacuous_cross_condition():
    # fewer blocks than the coloring arity: condition on cross products is empty
    dom = interval(3, 10)
    f = pair_coloring(dom, lambda x, y: (x + y) % 2)
    w = GroupingWitness((FinSet((4, 5)),), f)
    assert is_grouping(w, LargenessSpec.card(1), LargenessSpec.card(0), TOP)


def test_is_grouping_positive_example():
    dom = interval(3, 38)
    f = pair_coloring(dom, lambda x, y: 1)
    blocks = (FinSet(tuple(range(4, 9))), FinSet(tuple(range(9, 19))))
    w = GroupingWitness(blocks, f)
    assert is_grouping(w, L0_OMEGA, LargenessSpec.card(2), TOP)


def test_is_grouping_rejects_non_monochromatic():
    dom = interval(3, 38)
    f = pair_coloring(dom, lambda x, y: x % 2)
    blocks = (FinSet(tuple(range(4, 9))), FinSet(tuple(range(9, 19))))
    w = GroupingWitness(blocks, f)
    assert not is_grouping(w, L0_OMEGA, LargenessSpec.card(2), TOP)


def test_is_grouping_rejects_each_broken_condition():
    dom = interval(3, 38)
    f = pair_coloring(dom, lambda x, y: 0)
    good = GroupingWitness((FinSet(tuple(range(4, 9))), FinSet(tuple(range(9, 19)))), f)
    assert is_grouping(good, L0_OMEGA, LargenessSpec.card(2), TOP)
    # (i) first block too small for the largeness requirement
    w1 = GroupingWitness((FinSet((4, 5)), FinSet(tuple(range(9, 19)))), f)
    assert not is_grouping(w1, L0_OMEGA, LargenessSpec.card(2), TOP)
    # (ii) not enough blocks for the transversal requirement
    assert not is_grouping(good, L0_OMEGA, LargenessSpec.card(3), TOP)
    # (iv) apartness broken under a non-trivial sentence
    never = Pi03Sentence(parse("y < x"))
    assert not is_grouping(good, L0_OMEGA, LargenessSpec.card(2), never)


def test_is_grouping_malformed():
    dom = interval(3, 10)
    f = pair_coloring(dom, lambda x, y: 0)
    with pytest.raises(MalformedWitness):
        is_grouping(GroupingWitness((), f), LargenessSpec.card(1), LargenessSpec.card(1), TOP)
    with pytest.raises(MalformedWitness):
        is_grouping(
            GroupingWitness((FinSet((4, 6)), FinSet((5, 7))), f),
            LargenessSpec.card(1),
            LargenessSpec.card(1),
            TOP,
        )
    with pytest.raises(PreconditionError):
        is_grouping(
            GroupingWitness((FinSet((4,)), FinSet((40,))), f),
            LargenessSpec.card(1),
            LargenessSpec.card(1),
            TOP,
        )


def test_transversal_reduction_matches_cardinality():
    # with a cardinality requirement, the transversal condition is exactly
    # a block-count comparison: exhaust block counts and bounds up to 5
    dom = interval(3, 30)
    f = pair_coloring(dom, lambda x, y: 0)
    for k in range(1, 6):
        blocks = tuple(FinSet((3 + 2 * i,)) for i in range(k))
        w = GroupingWitness(blocks, f)
        for m in range(0, 6):
            assert is_grouping(w, LargenessSpec.card(1), LargenessSpec.card(m), TOP) == (k >= m)


def test_a_bare_count_answers_as_check_large_does():
    # card:M and omega:0:M:top read a length; the search over every block
    # and every one-point-per-block selection must agree
    rng = random.Random(3)
    for _ in range(150):
        points = sorted(rng.sample(range(3, 30), rng.randrange(1, 8)))
        cuts = sorted(rng.sample(range(1, len(points)), rng.randrange(len(points))))
        blocks = tuple(FinSet(tuple(points[a:b])) for a, b in zip([0, *cuts], [*cuts, len(points)]))
        for m in range(5):
            spec = LargenessSpec.card(m)
            assert spec == LargenessSpec(0, max(m, 1), TOP)
            selections = product(*(b.elements for b in blocks))
            every = all(check_large(FinSet(sel), spec) is not None for sel in selections)
            assert grouping._every_transversal(spec, blocks) == every
            for b in blocks:
                assert grouping._holds(spec, b.elements) == (check_large(b, spec) is not None)


def test_transversal_largeness_requirement():
    dom = interval(3, 30)
    f = pair_coloring(dom, lambda x, y: 0)
    l1 = LargenessSpec(1, 1, TOP)
    # singleton blocks have one transversal, their minima set; {5..9} has
    # 5 elements with minimum 5, one short of plainly large
    blocks = tuple(FinSet((v,)) for v in (5, 6, 7, 8, 9))
    assert not is_grouping(GroupingWitness(blocks, f), LargenessSpec.card(1), l1, TOP)
    blocks6 = tuple(FinSet((v,)) for v in (4, 5, 6, 7, 8, 9))
    assert is_grouping(GroupingWitness(blocks6, f), LargenessSpec.card(1), l1, TOP)


def test_downward_closure_of_l1():
    dom = interval(3, 38)
    f = pair_coloring(dom, lambda x, y: 0)
    blocks = (FinSet(tuple(range(4, 9))), FinSet(tuple(range(9, 19))))
    w = GroupingWitness(blocks, f)
    assert is_grouping(w, L0_OMEGA, LargenessSpec.card(2), TOP)
    assert is_grouping(w, L0_OMEGA, LargenessSpec.card(1), TOP)
    assert is_grouping(w, L0_OMEGA, LargenessSpec.card(0), TOP)


def test_find_grouping_constant_coloring():
    z = interval(3, 38)
    f = pair_coloring(z, lambda x, y: 0)
    out = find_grouping(z, f, L0_OMEGA, LargenessSpec.card(2), TOP)
    assert out.status == FOUND
    assert is_grouping(out.witness, L0_OMEGA, LargenessSpec.card(2), TOP)


def test_find_grouping_proven_absence():
    z = interval(3, 10)
    f = pair_coloring(z, lambda x, y: 0)
    out = find_grouping(z, f, LargenessSpec.card(1), LargenessSpec.card(len(z) + 1), TOP)
    assert out.status == ABSENT


def test_find_grouping_budget_exhaustion_is_distinct():
    z = interval(3, 38)
    rng = random.Random(0)
    f = ColoringTable.random(z, 2, 2, rng)
    out = find_grouping(z, f, L0_OMEGA, LargenessSpec.card(3), TOP, Budget(60))
    assert out.status == EXHAUSTED


def test_find_grouping_random_soundness():
    rng = random.Random(77)
    z = interval(3, 16)
    found = 0
    for _ in range(25):
        f = ColoringTable.random(z, 2, 2, rng)
        out = find_grouping(z, f, LargenessSpec.card(2), LargenessSpec.card(2), TOP, Budget(30_000))
        if out.status == FOUND:
            found += 1
            assert is_grouping(out.witness, LargenessSpec.card(2), LargenessSpec.card(2), TOP)
    assert found > 0


def test_find_grouping_respects_apartness_sentence():
    z = interval(3, 10)
    f = pair_coloring(z, lambda x, y: 0)
    never = Pi03Sentence(parse("y < x"))
    out = find_grouping(z, f, LargenessSpec.card(1), LargenessSpec.card(2), never, Budget(500_000))
    assert out.status == ABSENT  # no two blocks can ever be apart


def test_find_homogeneous_examples():
    z = interval(3, 38)
    f = pair_coloring(z, lambda x, y: 0)
    out = find_homogeneous(z, f, LargenessSpec(1, 1, TOP))
    assert out.status == FOUND
    assert verify_certificate(out.subset, out.certificate, LargenessSpec(1, 1, TOP))

    tiny = FinSet((3, 4, 5, 6))
    g = pair_coloring(tiny, lambda x, y: (x * y) % 2)
    out = find_homogeneous(tiny, g, LargenessSpec(0, 1, TOP))
    assert out.status == FOUND and len(out.subset) == 1


def test_find_homogeneous_agrees_with_bruteforce():
    rng = random.Random(13)
    universe = tuple(range(3, 13))
    oracle = BruteForcePlain(universe)
    for _ in range(60):
        vals = tuple(sorted(rng.sample(universe, rng.randrange(1, 10))))
        x = FinSet(vals)
        f = ColoringTable.random(x, 2, 2, rng)
        for n in (0, 1):
            out = find_homogeneous(x, f, LargenessSpec(n, 1, TOP))
            # brute force: any homogeneous subset that is plainly large
            want = False
            for size in range(1, len(vals) + 1):
                for sub in combinations(vals, size):
                    colors = {f(a, b) for a, b in combinations(sub, 2)}
                    if len(colors) <= 1 and oracle.is_large(sub, n, 1):
                        want = True
                        break
                if want:
                    break
            assert (out.status == FOUND) == want, (vals, list(f.table), n)
            if out.status == FOUND:
                colors = {f(a, b) for a, b in combinations(out.subset.elements, 2)}
                assert len(colors) <= 1


def test_find_transitive_returns_transitive_subset():
    rng = random.Random(23)
    z = interval(3, 20)
    for _ in range(20):
        f = ColoringTable.random(z, 2, 2, rng)
        out = find_transitive(z, f, LargenessSpec(1, 1, TOP), Budget(200_000))
        if out.status == FOUND:
            e = out.subset.elements
            for i in range(len(e)):
                for j in range(i + 1, len(e)):
                    for k in range(j + 1, len(e)):
                        assert not (f(e[i], e[j]) == f(e[j], e[k]) != f(e[i], e[k]))


def test_witness_json_roundtrip():
    dom = interval(3, 38)
    f = pair_coloring(dom, lambda x, y: 0)
    w = GroupingWitness((FinSet((4, 5)), FinSet((9, 10))), f)
    again = GroupingWitness.from_json(w.to_json(), f)
    assert again.blocks == w.blocks


# -- the walk: explicit stack, minimal blocks --------------------------------

# under `z < y + y` a block [m, M] is apart from any earlier block iff
# M <= 2m - 2, so apartness reads both ends of the open block
SENTENCES = [TOP] + [Pi03Sentence(parse(t)) for t in ("x < y or z < y", "y < x", "z < y + y")]


def _lspec(kind, sentence):
    if kind[0] == "card":
        return LargenessSpec.card(kind[1])
    return LargenessSpec(kind[1], kind[2], sentence)


LSPEC_KINDS = [("card", 1), ("card", 2), ("card", 3), ("omega", 1, 1), ("omega", 0, 2)]


@st.composite
def walk_inputs(draw, max_size):
    values = draw(st.lists(st.integers(3, 13), max_size=max_size, unique=True))
    z = FinSet(tuple(sorted(values)))
    f = ColoringTable.random(z, 2, 2, draw(st.randoms(use_true_random=False)))
    sentence = draw(st.sampled_from(SENTENCES))
    l0 = _lspec(draw(st.sampled_from(LSPEC_KINDS)), sentence)
    l1 = _lspec(draw(st.sampled_from(LSPEC_KINDS)), sentence)
    return z, f, l0, l1, sentence


def _blocks(witnesses, limit):
    return [tuple(b.elements for b in w.blocks) for w in islice(witnesses, limit)]


@given(walk_inputs(max_size=8), st.booleans())
@settings(max_examples=120, deadline=None)
def test_walk_matches_recursive_walk(inputs, minimal):
    # same witnesses in the same order; the walk cuts open blocks that
    # cannot be filled, which the recursive walk does not, so it takes at
    # most as many steps
    stacked = GroupingWalk(*inputs, Budget(None), minimal=minimal)
    recursive = GroupingWalk(*inputs, Budget(None), minimal=minimal)
    assert _blocks(stacked.witnesses(), 200) == _blocks(
        recursive_grouping_witnesses(recursive), 200
    )
    assert stacked.budget.spent <= recursive.budget.spent


@given(walk_inputs(max_size=11))
@settings(max_examples=150, deadline=None)
def test_minimal_walk_decides_like_full_walk(inputs):
    z, f, l0, l1, sentence = inputs
    full = next(GroupingWalk(*inputs, Budget(None)).witnesses(), None)
    out = find_grouping(z, f, l0, l1, sentence)
    assert out.status == (FOUND if full is not None else ABSENT)
    if out.status == FOUND:
        for b in out.witness.blocks:  # no block extends one that satisfies l0
            assert not any(grouping._holds(l0, b.elements[:j]) for j in range(1, len(b)))


@given(walk_inputs(max_size=11), st.sampled_from(["x + x < y", "z < x + y + 2"]))
@settings(max_examples=100, deadline=None)
def test_jump_reads_the_last_block_maximum(inputs, theta):
    # under these θ a start at v is apart from a block ending at m only for
    # small m, so a jump that reads a later maximum skips live starts
    z, f, l0, l1, _ = inputs
    args = (z, f, l0, l1, Pi03Sentence(parse(theta)))
    stacked = GroupingWalk(*args, Budget(None), minimal=True)
    recursive = GroupingWalk(*args, Budget(None), minimal=True)
    assert _blocks(stacked.witnesses(), 200) == _blocks(recursive_grouping_witnesses(recursive), 200)
    assert stacked.budget.spent <= recursive.budget.spent


def test_walk_is_deeper_than_the_recursion_limit():
    # the one block is built by 1499 extensions, one walk level each
    z = interval(3, 1502)
    f = pair_coloring(z, lambda x, y: 0)
    out = find_grouping(z, f, LargenessSpec.card(len(z)), LargenessSpec.card(1), TOP)
    assert out.status == FOUND and out.witness.blocks == (z,)


def test_dead_block_starts_are_jumped():
    # under `y < x` no block is apart from an earlier one; each block start
    # is one node, and its skip chain is one jump to the end, so the walk
    # takes under 2 steps per element, not one per skipped position
    z = interval(3, 1502)
    f = pair_coloring(z, lambda x, y: 0)
    never = Pi03Sentence(parse("y < x"))
    out = find_grouping(z, f, LargenessSpec.card(1), LargenessSpec.card(2), never, Budget(2 * len(z)))
    assert out.status == ABSENT and out.steps <= 2 * len(z)


class _CountedGets(dict):
    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_dead_chain_reads_the_z_frontier_linearly():
    # each jump asks holds_bounded(m, v, v) for a later v; x = 0 has no
    # witness, so its y scan resumes where the one for the last z bound
    # stopped, instead of reading every y < v again
    z = interval(3, 1502)
    f = pair_coloring(z, lambda x, y: 0)
    never = Pi03Sentence(parse("y < x"))
    reads = never._cache["z_frontier"] = _CountedGets()
    out = find_grouping(z, f, LargenessSpec.card(1), LargenessSpec.card(2), never, Budget(2 * len(z)))
    assert out.status == ABSENT and reads.gets <= 2 * len(z)
    # no memo key carries the y bound: the same queries under smaller y
    # bounds add no entry to any memo
    sizes = [len(memo) for memo in never._cache.values() if isinstance(memo, dict)]
    last = z.elements[-1]
    assert not any(never.holds_bounded(3, y, last) for y in range(last))
    assert [len(memo) for memo in never._cache.values() if isinstance(memo, dict)] == sizes


def test_walk_rejects_a_coloring_that_misses_the_set():
    f = pair_coloring(interval(3, 10), lambda x, y: 0)
    with pytest.raises(PreconditionError):
        find_grouping(interval(3, 11), f, LargenessSpec.card(1), LargenessSpec.card(2), TOP)
    g = ColoringTable.from_function(interval(3, 10), 1, 2, lambda x: 0)
    with pytest.raises(PreconditionError):
        find_grouping(interval(3, 10), g, LargenessSpec.card(1), LargenessSpec.card(2), TOP)


def test_find_grouping_rechecks_its_witness(monkeypatch):
    z = interval(3, 10)
    f = pair_coloring(z, lambda x, y: 0)
    monkeypatch.setattr(grouping, "is_grouping", lambda *args: False)
    with pytest.raises(RuntimeError):
        find_grouping(z, f, LargenessSpec.card(1), LargenessSpec.card(2), TOP)


# -- the include-first subset search: explicit stack --------------------------


@st.composite
def subset_search_inputs(draw):
    values = draw(st.lists(st.integers(3, 14), max_size=10, unique=True))
    z = FinSet(tuple(sorted(values)))
    f = ColoringTable.random(z, 2, 2, draw(st.randoms(use_true_random=False)))
    sentence = draw(st.sampled_from(SENTENCES))
    target = LargenessSpec(draw(st.integers(0, 2)), draw(st.integers(1, 2)), sentence)
    if draw(st.booleans()):
        return find_transitive, z, f, target, {}
    options = {
        "color": draw(st.sampled_from([None, 0, 1])),
        "anchor": draw(st.sampled_from([None, *values])),
    }
    return find_homogeneous, z, f, target, options


@given(subset_search_inputs(), st.sampled_from([10, 40, 20_000]))
@settings(max_examples=150, deadline=None)
def test_subset_search_matches_recursive_search(inputs, steps):
    # same status, subset and step count as the recursion the stack replaced
    search, z, f, target, options = inputs
    stacked = search(z, f, target, Budget(steps), **options)
    with patch.object(grouping, "_include_first_dfs", recursive_include_first_dfs):
        recursive = search(z, f, target, Budget(steps), **options)
    assert (stacked.status, stacked.subset, stacked.steps) == (
        recursive.status, recursive.subset, recursive.steps
    )


def test_subset_search_is_deeper_than_the_recursion_limit():
    # include-first takes 3 and 4, after which every later element is
    # skipped one level deeper
    z = interval(3, 1500)
    f = pair_coloring(z, lambda a, b: (b - a) % 2)
    out = find_homogeneous(z, f, LargenessSpec(2, 1, TOP), Budget(10 ** 5))
    assert out.status == EXHAUSTED
