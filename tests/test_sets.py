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
    restrict_coloring,
)

from oracles import bf_transitive


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


def test_restrict_coloring_examples():
    dom = FinSet((3, 4, 5))
    f = ColoringTable.from_function(dom, 1, 3, lambda v: v - 3)
    fg = restrict_coloring(f, FinSet((3, 5)))
    assert fg.domain.elements == (0, 1)
    assert fg.table == (f(3), f(5))

    whole = restrict_coloring(f, dom)
    assert whole.table == f.table

    dom2 = FinSet((3, 4, 5, 6))
    f2 = ColoringTable.from_function(dom2, 2, 2, lambda x, y: (x + y) % 2)
    fg2 = restrict_coloring(f2, FinSet((4, 6)))
    assert fg2(0, 1) == f2(4, 6)

    with pytest.raises(ValueError):
        restrict_coloring(f, FinSet((3, 6)))


def test_restrict_coloring_functorial():
    # restricting to G then to H-as-indices equals restricting to H directly,
    # exhaustively over a 6-element domain
    dom = FinSet(tuple(range(3, 9)))
    f = ColoringTable.from_function(dom, 2, 3, lambda x, y: (x * y) % 3)
    for gsize in range(2, 7):
        for g_vals in combinations(dom.elements, gsize):
            g = FinSet(g_vals)
            fg = restrict_coloring(f, g)
            for hsize in range(2, gsize + 1):
                for h_idx in combinations(range(gsize), hsize):
                    h_vals = FinSet(tuple(g_vals[i] for i in h_idx))
                    direct = restrict_coloring(f, h_vals)
                    via_g = restrict_coloring(fg, FinSet(h_idx))
                    assert direct.table == via_g.table


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
