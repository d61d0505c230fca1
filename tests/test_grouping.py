import random
from itertools import combinations, islice, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge import grouping
from omegalarge.budget import Budget
from omegalarge.formula import TOP, Pi03Sentence, SecondOrderParam, parse
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

from oracles import (
    BruteForcePlain,
    all_pairs_apart,
    product_cross_monochromatic,
    random_formula,
    recursive_grouping_witnesses,
    recursive_include_first_dfs,
)


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


def test_cross_clashes_are_jumped_under_top():
    # under TOP the first block is (3, 4); every later start clashes with it
    # up to 751, and every extension of (751,) with its established color
    # up to 1502; each chain costs the one step of the node it lands on,
    # not one step per position
    z = interval(3, 1502)
    f = pair_coloring(z, lambda x, y: int(x == 3 and y not in (751, 1502)))
    card2 = LargenessSpec.card(2)
    out = find_grouping(z, f, card2, card2, TOP, Budget(2 * len(z)))
    assert out.status == FOUND and [b.elements for b in out.witness.blocks] == [(3, 4), (751, 1502)]
    assert out.steps == 7


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


class CountingColoring:
    """A coloring that counts its reads."""

    def __init__(self, f):
        self.f, self.arity, self.reads = f, f.arity, 0

    def __call__(self, *values):
        self.reads += 1
        return self.f(*values)


@st.composite
def cross_inputs(draw):
    """A family of nonempty increasing blocks over [3, n] and a coloring of
    its pairs; one color makes every family cross-monochromatic."""
    dom = interval(3, draw(st.integers(3, 14)))
    f = ColoringTable.random(dom, 2, draw(st.sampled_from([1, 2])), draw(st.randoms(use_true_random=False)))
    points = sorted(draw(st.lists(st.sampled_from(dom.elements), min_size=1, unique=True)))
    cuts = sorted(draw(st.sets(st.integers(1, len(points) - 1)))) if len(points) > 1 else []
    bounds = [0, *cuts, len(points)]
    return tuple(FinSet(tuple(points[a:b])) for a, b in zip(bounds, bounds[1:])), f


@given(cross_inputs())
@settings(max_examples=300, deadline=None)
def test_cross_scan_matches_product_scan(inputs):
    # the same answer from the same coloring reads as the scan it replaced
    blocks, f = inputs
    direct, product_loop = CountingColoring(f), CountingColoring(f)
    assert grouping._cross_monochromatic(blocks, direct) == product_cross_monochromatic(blocks, product_loop)
    assert direct.reads == product_loop.reads


@st.composite
def apartness_inputs(draw):
    """An increasing family of blocks of [3,16] and a sentence: a random one,
    or one whose apartness reads the left block's maximum."""
    values = sorted(draw(st.lists(st.integers(3, 16), min_size=1, max_size=10, unique=True)))
    bounds = (0, *(i for i in range(1, len(values)) if draw(st.booleans())), len(values))
    blocks = tuple(FinSet(tuple(values[a:b])) for a, b in zip(bounds, bounds[1:]))
    rng = draw(st.randoms(use_true_random=False))
    text = draw(st.sampled_from([None, "x + 1 < y", "x + x < y", "z < x + y + 2"]))
    theta = random_formula(rng, ["x", "y", "z"], rng.randrange(1, 10)) if text is None else parse(text)
    param = SecondOrderParam(draw(st.text("01", max_size=20)))
    return blocks, Pi03Sentence(theta, draw(st.integers(0, 3)), param)


@given(apartness_inputs())
@settings(max_examples=300, deadline=None)
def test_consecutive_apartness_decides_like_all_pairs(inputs):
    # under a constant coloring and count-1 requirements is_grouping's only
    # open condition is apartness, which it asks of consecutive blocks only
    blocks, sentence = inputs
    w = GroupingWitness(blocks, pair_coloring(interval(3, 16), lambda x, y: 0))
    card1 = LargenessSpec.card(1)
    assert is_grouping(w, card1, card1, sentence) is all_pairs_apart(blocks, sentence)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_cross_scan_finds_a_clash_in_the_last_pair_only(count):
    # blocks of three points; the one clash is the last pair read, between
    # the maxima of the last two blocks, so both scans read every pair
    blocks = tuple(FinSet(tuple(range(3 + 3 * i, 6 + 3 * i))) for i in range(count))
    clash = (blocks[-2].maximum, blocks[-1].maximum) if count > 1 else None
    f = pair_coloring(interval(3, 20), lambda x, y: int((x, y) == clash))
    direct, product_loop = CountingColoring(f), CountingColoring(f)
    assert grouping._cross_monochromatic(blocks, direct) is (count == 1)
    assert product_cross_monochromatic(blocks, product_loop) is (count == 1)
    assert direct.reads == product_loop.reads == 9 * (count * (count - 1) // 2)


@pytest.mark.parametrize("sentence", [TOP, Pi03Sentence(parse("true"))], ids=["TOP", "parsed-true"])
def test_top_asks_no_apartness_question(monkeypatch, sentence):
    calls = []
    holds_bounded = Pi03Sentence.holds_bounded

    def counted(self, *bounds):
        calls.append(bounds)
        return holds_bounded(self, *bounds)

    monkeypatch.setattr(Pi03Sentence, "holds_bounded", counted)
    z, card2 = interval(3, 38), LargenessSpec.card(2)
    for seed in range(8):
        f = ColoringTable.random(z, 2, 2, random.Random(seed))
        out = find_grouping(z, f, card2, card2, sentence, Budget(2_000))
        assert out.status == FOUND and is_grouping(out.witness, card2, card2, sentence)
    assert calls == []
    # the counter sees the questions of a sentence that is not TOP
    find_grouping(z, f, card2, card2, Pi03Sentence(parse("z < y + y")), Budget(2_000))
    assert calls


# find_grouping on ColoringTable.random([3, 38], 2, 2, random.Random(seed))
# at card:2/card:2 and budget 2,000, by seed: the witness blocks and steps
PINNED_FINDS = [
    (((3, 4), (5, 7)), 6), (((3, 4), (6, 8)), 7), (((3, 4), (7, 10)), 7), (((3, 4), (5, 13)), 6),
    (((3, 4), (8, 13)), 7), (((3, 4), (6, 10)), 7), (((3, 4), (5, 14)), 6), (((3, 4), (5, 7)), 6),
    (((3, 4), (5, 16)), 6), (((3, 4), (8, 12)), 7), (((3, 4), (10, 11)), 6), (((3, 4), (6, 9)), 7),
    (((3, 4), (7, 14)), 7), (((3, 4), (5, 14)), 6), (((3, 4), (8, 10)), 7), (((3, 4), (6, 8)), 7),
    (((3, 4), (5, 7)), 6), (((3, 4), (6, 7)), 6), (((3, 4), (6, 11)), 7), (((3, 4), (5, 6)), 5),
    (((3, 4), (5, 15)), 6), (((3, 4), (5, 16)), 6), (((3, 4), (6, 12)), 7), (((3, 4), (10, 17)), 7),
    (((3, 4), (9, 10)), 6), (((3, 4), (7, 8)), 6), (((3, 4), (5, 8)), 6), (((3, 4), (5, 11)), 6),
    (((3, 4), (6, 7)), 6), (((3, 4), (6, 8)), 7), (((3, 4), (6, 11)), 7), (((3, 4), (5, 20)), 6),
]


def test_top_finds_keep_their_witnesses_and_steps():
    z, card2 = interval(3, 38), LargenessSpec.card(2)
    for seed, (blocks, steps) in enumerate(PINNED_FINDS):
        f = ColoringTable.random(z, 2, 2, random.Random(seed))
        out = find_grouping(z, f, card2, card2, TOP, Budget(2_000))
        assert (out.status, tuple(b.elements for b in out.witness.blocks), out.steps) == (FOUND, blocks, steps)
