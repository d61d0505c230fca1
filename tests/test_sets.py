from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge.sets import (
    ColoringTable,
    FinSet,
    SparsityPolicy,
    is_sparse,
    is_transitive,
)

from oracles import (
    bf_transitive,
    generator_row_offsets,
    per_entry_color_check,
    per_tuple_restrict_coloring,
)


def test_finset_validation():
    with pytest.raises(ValueError):
        FinSet((3, 3, 4))
    with pytest.raises(ValueError):
        FinSet((5, 4))
    with pytest.raises(ValueError):
        FinSet((-1, 4))
    assert FinSet((0, 1)).elements == (0, 1)  # a sentence's floor is not the set's
    assert len(FinSet(())) == 0


@given(st.lists(st.integers(3, 60), unique=True), st.lists(st.integers(-5, 70), max_size=20))
def test_membership_matches_set_membership(values, probes):
    x = FinSet(tuple(sorted(values)))
    for v in (*values, *probes):
        assert (v in x) == (v in set(x.elements))


@given(
    st.lists(st.integers(3, 12), unique=True, max_size=7),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300)
def test_is_transitive_matches_relation_composition(values, colors, rng):
    z = FinSet(tuple(sorted(values)))
    f = ColoringTable.random(z, 2, colors, rng)
    assert is_transitive(f, z.elements) == bf_transitive(f, z.elements)


@given(
    st.lists(st.integers(3, 12), unique=True, max_size=7),
    st.integers(1, 2),
    st.data(),
    st.booleans(),
)
def test_covers_matches_domain_subset(domain, arity, data, as_generator):
    f = ColoringTable.from_function(FinSet(tuple(sorted(domain))), arity, 2, lambda *t: 0)
    inside = st.sampled_from(domain) if domain else st.nothing()
    values = data.draw(st.lists(inside | st.integers(-2, 16), max_size=10))
    expected = set(values) <= set(f.domain.elements)
    assert f.covers((v for v in values) if as_generator else values) is expected


def test_finset_text_roundtrips():
    x = FinSet((3, 65, 4 ** 65 + 1))
    assert FinSet.parse(x.to_lines()) == x
    assert FinSet.parse(x.to_json()) == x


@pytest.mark.parametrize("text,message", [
    ('[3, 4.5]', 's.json: JSON set entry 1 is not an integer: 4.5'),
    ('[3, true]', 's.json: JSON set entry 1 is not an integer: true'),
    ('["3", "x4"]', 's.json: JSON set entry 1 is not a decimal numeral: "x4"'),
    ('[{"a": 1}]', 's.json: JSON set entry 0 is not an integer: {"a": 1}'),
])
def test_a_bad_json_entry_is_named_by_its_position(text, message):
    with pytest.raises(ValueError) as err:
        FinSet.parse(text, source="s.json")
    assert str(err.value) == message and err.value.__cause__ is None


def test_sparsity_examples():
    assert is_sparse(FinSet((3, 65, 4 ** 65 + 1)), SparsityPolicy.EXP4)
    assert not is_sparse(FinSet((3, 4)), SparsityPolicy.EXP4)  # 4^3 = 64 >= 4
    for policy in SparsityPolicy:
        assert is_sparse(FinSet((7,)), policy)


def test_sparsity_strictness_implication():
    # stricter policies imply weaker ones on values >= 3
    order = [SparsityPolicy.EXP4, SparsityPolicy.POLY2, SparsityPolicy.LINEAR, SparsityPolicy.NONE]
    sets = [
        FinSet((3, 65, 4 ** 65 + 1)),
        FinSet((3, 10, 101)),
        FinSet((3, 7, 15, 31)),
        FinSet((3, 4, 5)),
        FinSet((5,)),
    ]
    for x in sets:
        for i, strong in enumerate(order):
            for weak in order[i + 1:]:
                if is_sparse(x, strong):
                    assert is_sparse(x, weak)


def test_coloring_table_basics():
    dom = FinSet((3, 4, 5))
    f = ColoringTable.from_function(dom, 1, 2, lambda v: v % 2)
    assert f(3) == 1 and f(4) == 0
    with pytest.raises(KeyError):
        f(6)
    g = ColoringTable.from_json(f.to_json())
    assert g.table == f.table and g.domain.elements == dom.elements


def test_image_reads_a_subset_in_place():
    dom = FinSet((3, 4, 5))
    f = ColoringTable.from_function(dom, 1, 3, lambda v: v - 3)
    assert f.image((3, 5)) == {f(3), f(5)} == {0, 2}
    assert f.image(dom) == f.image() == {0, 1, 2}

    dom2 = FinSet((3, 4, 5, 6))
    f2 = ColoringTable.from_function(dom2, 2, 2, lambda x, y: (x + y) % 2)
    assert f2.image((4, 6)) == {f2(4, 6)} == {0}

    with pytest.raises(KeyError, match="not in coloring domain"):
        f.image((3, 6))


def test_reading_in_place_is_reading_the_restriction():
    # the image and the triple scan of H read in f equal those of H's
    # positions read in f restricted to G, for every H inside G, exhaustively
    # over a 6-element domain
    dom = FinSet(tuple(range(3, 9)))
    f = ColoringTable.from_function(dom, 2, 3, lambda x, y: (x * y) % 3)
    for gsize in range(2, 7):
        for g_vals in combinations(dom.elements, gsize):
            fg = per_tuple_restrict_coloring(f, FinSet(g_vals))
            for hsize in range(2, gsize + 1):
                for h_idx in combinations(range(gsize), hsize):
                    h_vals = tuple(g_vals[i] for i in h_idx)
                    assert f.image(h_vals) == fg.image(h_idx)
                    assert is_transitive(f, h_vals) == is_transitive(fg, h_idx)


@given(
    st.lists(st.integers(min_value=0, max_value=200), max_size=9, unique=True),
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_coloring_lookup_matches_lexicographic_table(values, arity, rng):
    # domains are arbitrary sets, not intervals, so positions and values differ
    dom = FinSet(tuple(sorted(values)))
    f = ColoringTable.random(dom, arity, 3, rng)
    tuples = list(combinations(dom.elements, arity))
    assert len(tuples) == len(f.table)
    for t, c in zip(tuples, f.table):
        assert f(*t) == c
    outside = max(values, default=0) + 1
    bad = [t[:-1] + (outside,) for t in tuples if t]  # out of domain
    bad += list(combinations(dom.elements, arity + 1))  # wrong arity
    if arity:
        bad += list(combinations(dom.elements, arity - 1))
    bad += [t[::-1] for t in tuples if len(t) >= 2]  # decreasing
    bad += [t[:1] + t[:-1] for t in tuples if len(t) >= 2]  # repeated
    for t in bad:
        with pytest.raises(KeyError):
            f(*t)


@pytest.mark.parametrize(
    "values, message",
    [
        ((3,), r"tuple \(3,\) has 1 values, not the coloring's arity 2"),
        ((3, 4, 5), r"tuple \(3, 4, 5\) has 3 values, not the coloring's arity 2"),
        ((5, 3), r"tuple \(5, 3\) is not strictly increasing"),
        ((4, 4), r"tuple \(4, 4\) is not strictly increasing"),
        ((3, 9), r"tuple \(3, 9\) not in coloring domain"),
        ((9, 3), r"tuple \(9, 3\) not in coloring domain"),
    ],
    ids=["arity-short", "arity-long", "decreasing", "repeated", "outside", "outside-decreasing"],
)
def test_a_coloring_miss_says_why(values, message):
    f = ColoringTable.from_function(FinSet((3, 4, 5, 6)), 2, 2, lambda x, y: (x + y) % 2)
    with pytest.raises(KeyError, match=message):
        f(*values)


def _inject(table: tuple, colors: int, at: int, kind: str) -> tuple:
    """The table with the entry at position `at` out of range: negative,
    equal to colors or above it."""
    bad = {"negative": -1, "equal": colors, "above": colors + 3}[kind]
    at %= len(table)
    return table[:at] + (bad,) + table[at + 1:]


@given(
    st.lists(st.integers(0, 40), unique=True, max_size=9),
    st.integers(0, 3),
    st.integers(1, 4),
    # none, one or two entries out of range; with two, the first in table
    # order is the one named
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(["negative", "equal", "above"])), max_size=2),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_coloring_tables_match_the_per_entry_oracles(values, arity, colors, injected, data):
    dom = FinSet(tuple(sorted(values)))
    tuples = list(combinations(dom.elements, arity))
    table = tuple(data.draw(st.lists(st.integers(0, colors - 1), min_size=len(tuples), max_size=len(tuples))))
    for at, kind in injected if table else ():
        table = _inject(table, colors, at, kind)
    # the same tables are accepted and rejected, with the same message
    try:
        per_entry_color_check(table, colors)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            ColoringTable(dom, arity, colors, table)
        assert str(got.value) == str(err)
        return
    f = ColoringTable(dom, arity, colors, table)
    assert f._row == (generator_row_offsets(len(dom)) if arity == 2 else ())
    assert [f(*t) for t in tuples] == list(table)
    # every subset's image is its restriction's, the empty set and the
    # whole domain included
    subsets = data.draw(st.lists(st.lists(st.sampled_from(values), unique=True), max_size=6)) if values else []
    for sub in [(), dom.elements, *subsets]:
        g = FinSet(tuple(sorted(sub)))
        assert f.image(g) == set(per_tuple_restrict_coloring(f, g).table)


def test_coloring_json_reads_integers_only():
    good = '{"domain": ["3", 4, "5"], "arity": 1, "colors": 2, "table": [0, 1, 0]}'
    f = ColoringTable.from_json(good)
    assert f.domain.elements == (3, 4, 5) and f.table == (0, 1, 0)
    bad = [
        ('{"domain": [3, 4.5, 6], "arity": 1, "colors": 2, "table": [0, 1, 0]}', "domain entry 1"),
        ('{"domain": [3, 4, 5], "arity": 1, "colors": 2, "table": [0, true, 1]}', "table entry 1"),
        ('{"domain": [3, 4, 5], "arity": 1, "colors": 2, "table": [0, 0.5, 1]}', "table entry 1"),
        ('{"domain": [3, 4, 5], "arity": 1, "colors": 2, "table": [0, "1", 1]}', "table entry 1"),
        ('{"domain": [3, 4, 5], "arity": 1.5, "colors": 2, "table": [0, 1, 0]}', "arity"),
        ('{"domain": "345", "arity": 1, "colors": 2, "table": [0, 1, 0]}', "JSON arrays"),
        ("[3, 4, 5]", "JSON object"),
    ]
    for text, message in bad:
        with pytest.raises(ValueError, match=message):
            ColoringTable.from_json(text)
