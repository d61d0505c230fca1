import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge import lowerbound
from omegalarge.cli import main
from omegalarge.largeness import (
    LargenessSpec,
    PreconditionError,
    SizeOverflow,
    check_large,
    is_minimal,
    minimal_interval_card,
    minimal_large_interval,
    t_apart,
)
from omegalarge.lowerbound import (
    CONFIRMED,
    CONSISTENT,
    BlockAddress,
    BlockfreeView,
    CanonicalTree,
    tree,
    verify_lower_bound,
)
from omegalarge.sets import FinSet

from oracles import (
    DescentNavigation,
    blockfree_separates,
    column_separation_bits,
    per_triple_separation_bits,
    plain_decompositions,
    sorted_view_members,
    table_instance,
)

T31 = tree(3, 1)
T32 = tree(3, 2)


def test_tree_recurrences():
    assert T31.cardinality() == 4 and T31.max_value() == 6
    assert T32.cardinality() == 36 and T32.max_value() == 38
    assert [c.base for c in T32.children()] == [4, 9, 19]
    assert [c.max_value() for c in T32.children()] == [8, 18, 38]


def test_tree_rank3_sizes_overflow_but_navigation_works():
    t3 = tree(3, 3)
    with pytest.raises(SizeOverflow):
        t3.cardinality(cap=10 ** 6)
    # first two children are reachable; their ranges are exact
    assert t3.child(0).base == 4 and t3.child(0).max_value() == 94
    assert t3.child(1).base == 95
    assert t3.contains(100)
    assert t3.node_rank_of(95) == 2


def test_materialization_agreement():
    for base, rank in [(3, 1), (5, 1), (3, 2), (4, 2), (6, 2)]:
        t = tree(base, rank)
        mat = t.materialize()
        assert mat == minimal_large_interval(base, rank)
        assert is_minimal(mat, rank)


def test_block_of_examples():
    assert T32.block_of(3, 1) is None  # the root minimum joins no deeper block
    addr = T32.block_of(7, 1)
    assert addr == BlockAddress((0,), 1)
    assert T32.block_of(4, 0) is None  # a block minimum one level down
    assert T32.block_of(5, 0) == BlockAddress((0, 0), 0)
    assert T32.block_of(39, 1) is None  # outside the set
    assert T32.block_of(10, 2) == BlockAddress((), 2)


def test_same_block_examples():
    assert T32.same_block(5, 8, 1)
    assert not T32.same_block(8, 9, 1)
    for v in (3, 4, 17, 38):
        assert T32.same_block(v, v, T32.rank)


def test_separates_examples():
    assert tree(3, 1).separates(4, 5, 5)
    assert T32.separates(6, 9, 18)
    assert T32.separates(100, 5, 7)  # membership guard: vacuous
    assert not T32.separates(3, 3, 3)  # y = x fails the strictness clause


def _materializes(base: int, rank: int) -> bool:
    try:
        tree(base, rank).materialize(budget=256)
    except SizeOverflow:
        return False
    return True


# tree(b, r) for b 3-5 and r 1-3 wherever it materializes under 256, at
# depth 0 (the tree itself) and as its depth-1 and depth-2 views
NAVIGABLE = [
    (b, r, d) for b in (3, 4, 5) for r in (1, 2, 3) if _materializes(b, r) for d in range(min(r, 2) + 1)
]


@pytest.mark.parametrize("base,rank,depth", NAVIGABLE)
def test_navigation_matches_the_descent_oracle(base, rank, depth):
    t = tree(base, rank)
    owner = BlockfreeView(t, depth) if depth else t
    oracle = DescentNavigation(t, depth)
    top = t.max_value()
    members = owner.materialize().elements
    for v in range(base - 1, top + 3):
        assert owner.contains(v) == oracle.contains(v), v
        for c in range(-1, owner.rank + 2):
            a = owner.block_of(v, c)
            assert (None if a is None else (a.path, a.level)) == oracle.block_of(v, c), (v, c)
    for v in members:
        assert owner.node_rank_of(v) == oracle.node_rank_of(v), v
        assert owner.parity_color(v) == oracle.parity_color(v), v
    for v in (base - 1, top + 1):
        with pytest.raises(PreconditionError):
            owner.parity_color(v)
    probes = members[:: max(1, len(members) // 40)] + (top + 1,)
    for x in probes:
        for y in probes:
            for c in range(owner.rank + 1):
                assert owner.same_block(x, y, c) == oracle.same_block(x, y, c), (x, y, c)


def test_parity_coloring_patterns():
    assert T31.parity_color(3) == 1
    assert all(T31.parity_color(v) == 0 for v in (4, 5, 6))
    assert T32.parity_color(4) == 1
    assert T32.parity_color(5) == 0
    assert T32.parity_color(3) == 0  # only the rank-2 block contains it
    with pytest.raises(PreconditionError):
        T32.parity_color(39)


def test_parity_characterization_exhaustive():
    for v in T32.materialize():
        smallest = min(c for c in range(T32.rank + 1) if T32.block_of(v, c) is not None)
        assert T32.parity_color(v) == smallest % 2


def test_zero_blockfree_views():
    assert T31.zero_blockfree().materialize().elements == (3,)
    view = T32.zero_blockfree()
    assert view.materialize().elements == (3, 4, 9, 19)
    assert is_minimal(view.materialize(), 1)
    assert view.zero_blockfree().materialize().elements == (3,)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 7), st.integers(1, 3), st.data())
def test_blockfree_views_list_the_members_of_the_sorted_walk(base, rank, data):
    # rank 3 overflows past its second child; budgets cut the walk anywhere
    depth = data.draw(st.integers(1, rank), label="depth")
    budget = data.draw(st.sampled_from((0, 1, 5, 40, 10 ** 4)), label="budget")
    view = BlockfreeView(tree(base, rank), depth)
    try:
        want = sorted_view_members(BlockfreeView(tree(base, rank), depth), budget)
    except SizeOverflow as err:
        with pytest.raises(SizeOverflow) as got:
            view.materialize(budget)
        assert str(got.value) == str(err)
        return
    assert list(view.iter_elements(budget)) == want
    assert view.materialize(budget).elements == tuple(want)
    assert view.cardinality(budget) == len(want)


def test_blockfree_separates_keeps_its_answers():
    # the view shares the tree's body; compare it with the view's former copy
    view = T32.zero_blockfree()
    members = view.materialize().elements
    probes = sorted({v + d for v in members for d in (-1, 0, 1)} | {38, 39})
    answers = set()
    for x in probes:
        for y in probes:
            for z in probes:
                got = view.separates(x, y, z)
                assert got == blockfree_separates(view, x, y, z), (x, y, z)
                if x in members and z in members and z >= y:
                    answers.add(got)
    assert answers == {True, False}


def test_unique_decomposition_via_enumeration():
    for t in (T31, T32):
        mat = t.materialize()
        found = plain_decompositions(mat.elements, t.rank)
        assert len(found) == 1
        blocks = found[0]
        assert list(blocks) == [c.materialize().elements for c in t.children()]


def test_apart_shortcut_exhaustive_on_rank1():
    sentence = T31.export_sentence()
    elems = T31.materialize().elements
    subsets = [FinSet(s) for size in range(1, 5) for s in combinations(elems, size)]
    for a in subsets:
        for b in subsets:
            if a.maximum < b.minimum:
                assert T31.apart_shortcut(a, b) == t_apart(a, b, sentence)


def test_apart_shortcut_sampled_on_rank2():
    rng = random.Random(6)
    sentence = T32.export_sentence()
    elems = T32.materialize().elements
    for _ in range(400):
        vals = sorted(rng.sample(elems, rng.randrange(2, 8)))
        cut = rng.randrange(1, len(vals))
        a, b = FinSet(tuple(vals[:cut])), FinSet(tuple(vals[cut:]))
        assert T32.apart_shortcut(a, b) == t_apart(a, b, sentence)


def test_theta_locality_on_level_one_blocks():
    # inside a canonical block, the block's own separation predicate and
    # the whole tree's agree on all triples
    for child in T32.children():
        sub = CanonicalTree(child.base, child.rank)
        elems = sub.materialize().elements
        for x in elems:
            for y in elems:
                for z in elems:
                    assert T32.separates(x, y, z) == sub.separates(x, y, z)


def test_locality_of_large_subsets():
    # subsets of a canonical block are large under the block's sentence
    # exactly when they are large under the tree's sentence
    child = T32.child(0)
    sub = CanonicalTree(child.base, child.rank)
    t_whole = T32.export_sentence()
    t_block = sub.export_sentence()
    elems = sub.materialize().elements
    for size in range(1, len(elems) + 1):
        for s in combinations(elems, size):
            fs = FinSet(s)
            for k in (0, 1):
                whole = check_large(fs, LargenessSpec(k, 1, t_whole)) is not None
                block = check_large(fs, LargenessSpec(k, 1, t_block)) is not None
                assert whole == block


def test_blockfree_theta_transport():
    view = T32.zero_blockfree()
    elems = view.materialize().elements
    for x in elems:
        for y in elems:
            for z in elems:
                assert T32.separates(x, y, z) == view.separates(x, y, z)


def test_self_largeness_with_canonical_children():
    sentence = T32.export_sentence()
    cert = check_large(T32.materialize(), LargenessSpec(2, 1, sentence))
    assert cert is not None
    node = cert.blocks[0].cert
    xs = T32.materialize().elements
    ranges = [(xs[b.lo], xs[b.hi - 1]) for b in node.children]
    assert ranges == [(4, 8), (9, 18), (19, 38)]


def test_apart_pairs_live_inside_single_children():
    rng = random.Random(41)
    sentence = T32.export_sentence()
    child_ranges = [(c.base, c.max_value()) for c in T32.children()]
    elems = T32.materialize().elements
    hits = 0
    for _ in range(500):
        vals = sorted(rng.sample(elems, rng.randrange(2, 8)))
        cut = rng.randrange(1, len(vals))
        a, b = FinSet(tuple(vals[:cut])), FinSet(tuple(vals[cut:]))
        if t_apart(a, b, sentence):
            hits += 1
            assert any(lo <= b.minimum and b.maximum <= hi for lo, hi in child_ranges)
    assert hits > 0


def test_verify_lower_bound_rank1():
    for base in (3, 5):
        report = verify_lower_bound(tree(base, 1), mode="exhaustive")
        assert report.status == CONFIRMED and report.complete
        pruned = verify_lower_bound(tree(base, 1), mode="pruned")
        assert pruned.status == CONFIRMED


def test_verify_lower_bound_homogeneity_sanity():
    # color-0 subsets of three elements exist, but none is large under the
    # tree's sentence: minima above 3 need more elements than are available
    elems = T31.materialize()
    zeros = [v for v in elems if T31.parity_color(v) == 0]
    assert len(zeros) == 3
    sentence = T31.export_sentence()
    assert check_large(FinSet(tuple(zeros)), LargenessSpec(1, 1, sentence)) is None


def test_verify_lower_bound_rank3_consistent():
    report = verify_lower_bound(tree(3, 3), mode="pruned")
    assert report.status == CONSISTENT
    assert not report.complete
    assert report.sub_instances > 0
    with pytest.raises(SizeOverflow):
        verify_lower_bound(tree(3, 3), mode="exhaustive")


def test_export_sentence_reads_shifted_structure():
    # the matrix looks the predicate up at the successor point of each
    # argument, turning strict quantifier bounds into inclusive ones
    sentence = T31.export_sentence()
    bound = T31.max_value() + 2
    for x in range(bound - 1):
        for y in range(bound - 1):
            for z in range(bound - 1):
                assert sentence.theta_at(x, y, z) == T31.separates(x + 1, y + 1, z + 1)


@pytest.mark.parametrize("ceiling", [128, 256])
@pytest.mark.parametrize("base,rank", [(b, r) for b in (3, 4, 5) for r in (1, 2)])
def test_export_table_matches_per_triple_oracle(base, rank, ceiling):
    # the per-x planes give the bits of the per-triple scan and of the
    # per-pair columns they replaced, on a tree and its depth-1 view
    t = tree(base, rank)
    for owner in (t, t.zero_blockfree()):
        try:
            want = per_triple_separation_bits(owner, ceiling)
        except SizeOverflow:
            with pytest.raises(SizeOverflow):
                owner.export_sentence(ceiling)
            continue
        bits = owner.export_sentence(ceiling).param_A.bits
        assert bits == want
        assert bits == column_separation_bits(owner, owner.max_value() + 2)


def test_export_table_overflow_cases():
    # tree(5, 2) ends at 222: its table bound 224 exceeds 128 and fits 256
    with pytest.raises(SizeOverflow):
        tree(5, 2).export_sentence(128)
    with pytest.raises(SizeOverflow):
        per_triple_separation_bits(tree(5, 2), 128)
    assert tree(4, 2).export_sentence(128).param_A.length == 96 ** 3


# ---------------------------------------------------------------------------
# Verification reads the tree: the structural separation sentence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base,rank", [(b, r) for b in (3, 4, 5, 6) for r in (1, 2, 3)])
def test_bisected_paths_match_the_descent_oracle(base, rank):
    # a fresh tree asked in a shuffled order extends its child bases from
    # every state: near the start, and far out where sizes overflow (each
    # leaf block is a child of its own, so far values are few)
    rng = random.Random(base * 10 + rank)
    values = list(range(base - 1, base + 300)) + [rng.randrange(base, 10_000) for _ in range(20)]
    far = [10 ** 6, rng.randrange(10 ** 6, 2 * 10 ** 6)]
    values += far
    rng.shuffle(values)
    t = tree(base, rank)
    oracle = DescentNavigation(tree(base, rank))
    for v in values:
        # the oracle builds every earlier child, so far values are checked
        # against the size recurrence instead
        want = _path_by_recurrence(base, rank, v) if v in far else oracle.path(v)
        assert t._path(v) == want, v


def _path_by_recurrence(base, rank, v):
    """v's child-index path from minimal_interval_card alone: child i of a
    node starts where child i - 1 ends."""
    try:
        if v < base or v >= base + minimal_interval_card(base, rank, v - base + 1):
            return None
    except SizeOverflow:
        pass  # the interval extends past v
    path = ()
    while v != base:
        child, i = base + 1, 0
        while True:
            try:
                size = minimal_interval_card(child, rank - 1, v - child + 1)
            except SizeOverflow:
                break
            if v < child + size:
                break
            child, i = child + size, i + 1
        path, base, rank = path + (i,), child, rank - 1
    return path


def test_a_late_child_is_found_without_building_the_earlier_ones():
    # 10^6 is child 205,376 of a rank-1 node; each earlier child used to be built
    t = tree(3, 3)
    start = time.perf_counter()
    assert t._path(10 ** 6) == (1, 13, 205376)
    assert time.perf_counter() - start < 0.5
    assert t.child(1).child(13).child(205376).base == 10 ** 6


@pytest.mark.parametrize("base,rank,depth", [(3, 1, 0), (3, 2, 0), (3, 2, 1)])
def test_separation_sentence_prints_as_the_export(base, rank, depth):
    # its A prints the export table, built by the export's own code
    owner = BlockfreeView(tree(base, rank), depth) if depth else tree(base, rank)
    assert owner.separation_sentence().to_json() == owner.export_sentence().to_json()


# (base, rank, depth): tree(b, r) for b 3-5 and r 1-2, and its depth-1 view
OWNERS = [(b, r, d) for b in (3, 4, 5) for r in (1, 2) for d in (0, 1)]


@pytest.mark.parametrize("base,rank,depth", OWNERS)
def test_separation_sentence_reads_the_exported_table(base, rank, depth):
    """The structural theta answers every triple as the table does: every
    entry below b = 5; for b = 5 (tree(5,2)'s table has 11.2M entries) every
    triple over the values next to a block head or an end, and a sample."""
    owner = BlockfreeView(tree(base, rank), depth) if depth else tree(base, rank)
    structural = owner.separation_sentence()
    table = owner.export_sentence()
    bits, member = table.param_A.bits, structural.param_A.member
    bound = owner.max_value() + 2
    assert structural.theta == table.theta and len(bits) == bound ** 3
    assert not member(bound ** 3) and not member(-1)
    if base < 5:
        assert "".join("1" if member(i) else "0" for i in range(len(bits))) == bits
        return
    members = owner.materialize().elements
    heads = [v for v in members if owner.node_rank_of(v) >= 1] + [members[0], members[-1]]
    edge = sorted({0, bound - 1} | {v + d for v in heads for d in (-1, 0, 1)})
    rng = random.Random(5)
    triples = [(x, y, z) for x in edge for y in edge for z in edge]
    triples += [tuple(rng.randrange(bound) for _ in range(3)) for _ in range(5_000)]
    for x, y, z in triples:
        i = (x * bound + y) * bound + z
        assert member(i) == (bits[i] == "1"), (x, y, z)
        if max(x, y, z) < bound - 1:
            assert structural.theta_at(x, y, z) == table.theta_at(x, y, z), (x, y, z)


# (base, rank, depth, mode): trees b 3-7 at rank 1 in both modes, pruned
# rank 3, and rank-1 views in both modes, tree(6, 2)'s past the ceiling
VERIFICATION_CASES = (
    [(b, 1, 0, mode) for b in range(3, 8) for mode in ("exhaustive", "pruned")]
    + [(b, 3, 0, "pruned") for b in (3, 4, 5)]
    + [(b, 2, 1, mode) for b in (3, 4, 5, 6) for mode in ("exhaustive", "pruned")]
    + [(3, 3, 2, "pruned")]
)


def _report(base, rank, depth, mode):
    t = tree(base, rank)
    try:
        return verify_lower_bound(BlockfreeView(t, depth) if depth else t, mode=mode)
    except SizeOverflow as err:
        return repr(err)


@pytest.mark.parametrize("base,rank,depth,mode", VERIFICATION_CASES)
def test_verification_reports_match_the_table_oracle(base, rank, depth, mode, monkeypatch):
    got = _report(base, rank, depth, mode)
    with monkeypatch.context() as m:
        m.setattr(lowerbound, "_instance", table_instance)
        want = _report(base, rank, depth, mode)
    assert got == want


def _no_export(self, *args):
    raise AssertionError("verification built a table")


def test_verification_builds_no_table(monkeypatch, capsys):
    monkeypatch.setattr(CanonicalTree, "export_sentence", _no_export)
    monkeypatch.setattr(BlockfreeView, "export_sentence", _no_export)
    for t in (tree(3, 1), tree(5, 1), tree(3, 2).zero_blockfree(), tree(4, 2).zero_blockfree()):
        for mode in ("exhaustive", "pruned"):
            assert verify_lower_bound(t, mode=mode).status == CONFIRMED
    assert verify_lower_bound(tree(3, 3), mode="pruned").status == CONSISTENT
    assert main(["lowerbound", "verify", "--n", "1"]) == 0
    assert main(["lowerbound", "verify", "--n", "2", "--mode", "pruned"]) == 2
    capsys.readouterr()


def _exports(owner, ceiling) -> bool:
    try:
        owner.export_sentence(ceiling)
    except SizeOverflow:
        return False
    return True


def test_one_fit_test_for_export_and_verification():
    # {3}'s table has bound 5: it fits a ceiling of 5, not 4
    view = tree(3, 1).zero_blockfree()
    for ceiling in (4, 5, 6):
        assert lowerbound._exportable(view, ceiling) == _exports(view, ceiling) == (ceiling >= 5)
    # tree(6, 2) ends at 255, so its view's bound 257 passes 256; verifying
    # the view used to raise "export table bound" instead of answering
    view = tree(6, 2).zero_blockfree()
    assert view.max_value() == 255 and not lowerbound._exportable(view, 256)
    report = verify_lower_bound(view, mode="pruned")
    assert (report.status, report.complete, report.skipped) == (CONSISTENT, False, 1)


def test_exhaustive_refuses_on_the_count_before_materializing(monkeypatch):
    def materialize(self, budget=None):
        raise AssertionError("materialized")

    monkeypatch.setattr(CanonicalTree, "materialize", materialize)
    monkeypatch.setattr(BlockfreeView, "materialize", materialize)
    # 17 members in tree(16, 1) and in tree(16, 2)'s view (the root and its
    # 16 children), far more in tree(3, 3)
    for t in (tree(16, 1), tree(16, 2).zero_blockfree(), tree(3, 3)):
        with pytest.raises(SizeOverflow, match="exhaustive subset enumeration"):
            verify_lower_bound(t, mode="exhaustive")
