import gc
import random
import weakref
from itertools import combinations

import pytest

from omegalarge.budget import Budget
from omegalarge.extract import decompose_mixed, fuse, pigeonhole_extract
from omegalarge.formula import HOMOGENEOUS, TOP, Pi03Sentence, RtLikeStatement, SecondOrderParam, parse
from omegalarge.grouping import (
    GroupingWalk,
    GroupingWitness,
    find_grouping,
    find_homogeneous,
    find_transitive,
    is_grouping,
)
from omegalarge.largeness import (
    Block,
    Certificate,
    LargenessSpec,
    Leaf,
    PreconditionError,
    SizeOverflow,
    check_large,
    is_large,
    is_minimal,
    is_plain_large,
    large_color_class,
    least_card,
    minimal_interval_card,
    minimal_large_interval,
    t_apart,
    verify_certificate,
)
from omegalarge.ramsey import ads_extract, ads_q_coloring, em_extract, is_large_gamma, is_n_dense
from omegalarge.sets import ColoringTable, FinSet

from oracles import BruteForcePlain, bf_large_t, interval_is_large


def fs(*values):
    return FinSet(tuple(values))


def interval(lo, hi):
    return FinSet.interval(lo, hi)


# -- apartness ---------------------------------------------------------------


def test_t_apart_examples():
    assert t_apart(fs(3, 4), fs(9, 10), TOP)
    succ = Pi03Sentence(parse("y = x + 1 and true"))
    assert t_apart(fs(3, 4), fs(9, 10), succ)
    never = Pi03Sentence(parse("y < x"))
    assert not t_apart(fs(3, 4), fs(9, 10), never)
    with pytest.raises(PreconditionError):
        t_apart(fs(3, 9), fs(5, 10), TOP)
    with pytest.raises(PreconditionError):
        t_apart(fs(3), FinSet(()), TOP)


def _random_theta_pool():
    return [
        TOP,
        Pi03Sentence(parse("y = x + 1 and true")),
        Pi03Sentence(parse("x < y or z < y")),
        Pi03Sentence(parse("exists w < y . w * 2 = x or x < w")),
        Pi03Sentence(parse("z < y + x + 2"), 0, SecondOrderParam("0110")),
    ]


def _random_chain(rng, lo=3, hi=24):
    vals = sorted(rng.sample(range(lo, hi), 6))
    a = fs(*vals[0:2])
    b = fs(*vals[2:4])
    c = fs(*vals[4:6])
    return a, b, c


def test_apartness_transitivity_and_monotonicity_sampled():
    rng = random.Random(5)
    for theta in _random_theta_pool():
        for _ in range(300):
            a, b, c = _random_chain(rng)
            if t_apart(a, b, theta) and t_apart(b, c, theta):
                assert t_apart(a, c, theta)
            if t_apart(a, b, theta):
                # any nonempty subsets inherit apartness
                a0 = FinSet(tuple(v for v in a if rng.randrange(2)) or (a.elements[0],))
                b0 = FinSet(tuple(v for v in b if rng.randrange(2)) or (b.elements[-1],))
                assert t_apart(a0, b0, theta)


def test_check_large_budget_token():
    from omegalarge.budget import Budget, BudgetExceeded

    theta = Pi03Sentence(parse("exists w < y . w * 2 = x or x < w"))
    with pytest.raises(BudgetExceeded):
        check_large(interval(3, 38), LargenessSpec(2, 1, theta), budget=Budget(3))


# -- certified checking vs brute force ---------------------------------------


def test_check_large_examples():
    assert check_large(fs(3, 4, 5, 6), LargenessSpec(1, 1, TOP)) is not None
    assert check_large(fs(3, 4, 5), LargenessSpec(1, 1, TOP)) is None

    cert = check_large(interval(3, 38), LargenessSpec(2, 1, TOP))
    assert cert is not None
    node = cert.blocks[0].cert
    xs = interval(3, 38).elements
    child_ranges = [(xs[b.lo], xs[b.hi - 1]) for b in node.children]
    assert child_ranges == [(4, 8), (9, 18), (19, 38)]

    for x in (fs(3), fs(44, 90), interval(5, 9)):
        cert = check_large(x, LargenessSpec(0, 1, TOP))
        assert cert is not None and isinstance(cert.blocks[0].cert, Leaf)

    assert check_large(FinSet(()), LargenessSpec(0, 1, TOP)) is None


def test_top_collapse_against_bruteforce_small():
    universe = tuple(range(3, 12))
    oracle = BruteForcePlain(universe)
    specs = [(n, k) for n in (0, 1, 2) for k in (1, 2, 3)]
    for size in range(0, 8):
        for vals in combinations(universe, size):
            x = FinSet(vals)
            for n, k in specs:
                want = oracle.is_large(vals, n, k)
                got = check_large(x, LargenessSpec(n, k, TOP)) is not None
                assert got == want, (vals, n, k)
                assert is_large(x, LargenessSpec(n, k, TOP)) == want


def test_check_large_with_sentence_matches_bruteforce_tiny():
    rng = random.Random(9)
    thetas = _random_theta_pool()
    for _ in range(120):
        theta = rng.choice(thetas)
        vals = tuple(sorted(rng.sample(range(3, 13), rng.randrange(1, 7))))
        x = FinSet(vals)
        for n, k in ((0, 2), (1, 1), (1, 2)):
            want = bf_large_t(vals, n, k, theta)
            cert = check_large(x, LargenessSpec(n, k, theta))
            assert (cert is not None) == want, (vals, n, k, theta)
            if cert is not None:
                assert verify_certificate(x, cert, LargenessSpec(n, k, theta))
                assert verify_certificate(x, cert, LargenessSpec(n, k, theta), paranoid=True)


def test_superset_closure():
    rng = random.Random(12)
    for _ in range(200):
        vals = sorted(rng.sample(range(3, 16), rng.randrange(1, 9)))
        extra = sorted(set(vals) | set(rng.sample(range(vals[0], 20), 3)))
        x, x2 = FinSet(tuple(vals)), FinSet(tuple(extra))
        if x2.minimum != x.minimum:
            continue
        for n, k in ((1, 1), (1, 2), (2, 1)):
            if check_large(x, LargenessSpec(n, k, TOP)) is not None:
                assert check_large(x2, LargenessSpec(n, k, TOP)) is not None


def test_floor_enforcement():
    t = Pi03Sentence(parse("true"), 7, SecondOrderParam(""))
    with pytest.raises(PreconditionError):
        check_large(fs(5, 6), LargenessSpec(0, 1, t))
    with pytest.raises(PreconditionError):
        t_apart(fs(5, 6), fs(8, 9), t)
    assert check_large(fs(7, 8), LargenessSpec(0, 1, t)) is not None


def _entries(x, sentence, pairs, points):
    """Every public entry that takes a set with a sentence or a coloring,
    called on x (and two blocks of it) with the colorings it is handed:
    `pairs` where it wants a pair coloring, `points` where a point one."""
    spec, one, rt12 = LargenessSpec(0, 1, sentence), LargenessSpec.card(1), RtLikeStatement(1, 2, HOMOGENEOUS)
    head, tail = FinSet(x.elements[:2]), FinSet(x.elements[-2:])
    colored = {
        "GroupingWalk": lambda: GroupingWalk(x, pairs, one, one, sentence, Budget()),
        "find_grouping": lambda: find_grouping(x, pairs, one, one, sentence),
        "is_grouping": lambda: is_grouping(GroupingWitness((head, tail), pairs), one, one, sentence),
        "find_homogeneous": lambda: find_homogeneous(x, pairs, spec),
        "find_transitive": lambda: find_transitive(x, pairs, spec),
        "pigeonhole_extract": lambda: pigeonhole_extract(x, points, 0, sentence),
        "em_extract": lambda: em_extract(x, pairs, 1, sentence),
        "ads_q_coloring": lambda: ads_q_coloring(x, pairs, 1, sentence),
        "ads_extract": lambda: ads_extract(x, pairs, 1, sentence),
    }
    return colored, {
        **colored,
        "check_large": lambda: check_large(x, spec),
        "t_apart": lambda: t_apart(head, tail, sentence),
        "is_large_gamma": lambda: is_large_gamma(x, 1, 1, sentence, rt12),
        "is_n_dense": lambda: is_n_dense(x, 3, sentence, rt12),
        "decompose_mixed": lambda: decompose_mixed(x, 0, 0, sentence),
        "fuse": lambda: fuse(head, [tail], 0, 0, sentence),
    }


def test_every_entry_rejects_what_its_preconditions_exclude():
    # one table: a set below the sentence's floor max(3, a), a coloring whose
    # domain misses the set, and a coloring of the wrong arity, each a
    # PreconditionError from every entry that takes one.  `low` is past the
    # subset ceiling and level 3 past the exact density cap, so the Γ entries
    # raise only by their own check, not by a largeness check inside.
    low, x, short = interval(4, 30), interval(3, 10), interval(3, 9)
    a7 = Pi03Sentence(parse("x < y"), 7)

    def pairs(d):
        return ColoringTable.from_function(d, 2, 2, lambda u, v: 0)

    def points(d):
        return ColoringTable.from_function(d, 1, 2, lambda v: 0)

    _, every = _entries(low, a7, pairs(low), points(low))
    misses, _ = _entries(x, TOP, pairs(short), points(short))
    swapped, _ = _entries(x, TOP, points(x), pairs(x))
    assert len(every) == 15 and len(misses) == len(swapped) == 9
    for cases, why in ((every, "below admissible floor 7"), (misses, "does not cover"), (swapped, "arity")):
        for name, call in cases.items():
            with pytest.raises(PreconditionError, match=why):
                call()
                pytest.fail(f"{name} accepted its input")
    cert = check_large(low, LargenessSpec(0, 1, TOP))
    assert cert is not None and not verify_certificate(low, cert, LargenessSpec(0, 1, a7))


# -- certificate verification ------------------------------------------------


def test_verify_accepts_search_output():
    for x, spec in [
        (fs(3, 4, 5, 6), LargenessSpec(1, 1, TOP)),
        (interval(3, 38), LargenessSpec(2, 1, TOP)),
        (interval(3, 20), LargenessSpec(1, 2, TOP)),
    ]:
        cert = check_large(x, spec)
        assert cert is not None
        assert verify_certificate(x, cert, spec)
        assert verify_certificate(x, cert, spec, paranoid=True)


def test_verify_rejects_overlapping_blocks():
    x = interval(3, 20)
    leaf = Leaf(4)
    cert = Certificate(0, 2, (Block(1, 3, Leaf(4)), Block(2, 4, Leaf(5))))
    assert not verify_certificate(x, cert, LargenessSpec(0, 2, TOP))
    ok = Certificate(0, 2, (Block(1, 3, leaf), Block(3, 4, Leaf(6))))
    assert verify_certificate(x, ok, LargenessSpec(0, 2, TOP))


def test_verify_rejects_wrong_spec_shape():
    x = fs(3, 4, 5, 6)
    cert = check_large(x, LargenessSpec(1, 1, TOP))
    assert cert is not None
    assert not verify_certificate(x, cert, LargenessSpec(2, 1, TOP))
    assert not verify_certificate(x, cert, LargenessSpec(1, 2, TOP))


def test_verify_rejects_tampered_certificates():
    x = interval(3, 38)
    spec = LargenessSpec(2, 1, TOP)
    cert = check_large(x, spec)
    obj = cert.to_obj()
    # chop one child off the decomposition node
    obj["blocks"][0]["cert"]["children"] = obj["blocks"][0]["cert"]["children"][:-1]
    assert not verify_certificate(x, Certificate.from_obj(obj), spec)
    # lie about the head value
    obj2 = cert.to_obj()
    obj2["blocks"][0]["cert"]["head"] = "4"
    assert not verify_certificate(x, Certificate.from_obj(obj2), spec)


def test_certificate_json_roundtrip():
    x = interval(3, 38)
    spec = LargenessSpec(2, 1, TOP)
    cert = check_large(x, spec)
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert verify_certificate(x, again, spec)
    # a block's cert is a leaf or a node, at any depth; any other kind is
    # named, not read as a node
    obj = cert.to_obj()
    obj["blocks"][0]["cert"]["children"][1]["cert"]["kind"] = "twig"
    with pytest.raises(ValueError, match=r'^a block\'s cert kind must be leaf or node, not "twig"$'):
        Certificate.from_obj(obj)


def test_verify_apartness_consecutive_vs_paranoid():
    theta = Pi03Sentence(parse("y = x + 1 and true"))
    x = interval(3, 30)
    spec = LargenessSpec(1, 3, theta)
    cert = check_large(x, spec)
    assert cert is not None
    assert verify_certificate(x, cert, spec, paranoid=True)


# -- minimal intervals --------------------------------------------------------


def test_minimal_interval_facts():
    assert minimal_large_interval(3, 1).elements == (3, 4, 5, 6)
    m2 = minimal_large_interval(3, 2)
    assert m2.elements == tuple(range(3, 39)) and len(m2) == 36
    assert is_minimal(fs(3, 4, 5, 6), 1)
    assert is_minimal(m2, 2)
    assert not is_minimal(fs(3, 4, 5, 6, 7), 1)


def test_minimal_interval_overflow():
    with pytest.raises(SizeOverflow):
        minimal_large_interval(3, 3, budget=10 ** 6)


def test_minimal_interval_card_recurrence():
    assert minimal_interval_card(3, 0, 10) == 1
    assert minimal_interval_card(3, 1, 10) == 4
    assert minimal_interval_card(3, 2, 100) == 36
    assert minimal_interval_card(4, 2, 1000) == 91
    # closed form for exponent 2 agrees with the explicit recurrence
    for base in range(3, 9):
        total, nxt = 1, base + 1
        for _ in range(base):
            c = nxt + 1
            total += c
            nxt += c
        assert minimal_interval_card(base, 2, 10 ** 9) == total


def test_minimal_interval_card_rejects_a_negative_exponent():
    with pytest.raises(PreconditionError):
        minimal_interval_card(3, -1, 10)
    with pytest.raises(PreconditionError):
        minimal_large_interval(3, -1)


def _uncapped_card(b: int, n: int) -> int:
    # the recurrence down to exponent 2's closed form, with no cap
    if n == 2:
        return 1 + (b + 2) * ((1 << b) - 1)
    total, nxt = 1, b + 1
    for _ in range(b):
        c = _uncapped_card(nxt, n - 1)
        total += c
        nxt += c
    return total


@pytest.mark.parametrize("base,exponent", [(b, 2) for b in range(1, 13)] + [(1, 3), (2, 3), (1, 4)])
def test_minimal_interval_card_overflows_exactly_past_the_cap(base, exponent):
    # the lower bound checked before the recurrence descends never fires at
    # or above the true card
    card = _uncapped_card(base, exponent)
    assert minimal_interval_card(base, exponent, card) == card
    with pytest.raises(SizeOverflow):
        minimal_interval_card(base, exponent, card - 1)


def test_least_card_is_the_shortest_large_prefix():
    memo: dict = {}
    for first in range(1, 13):
        for exponent in range(4):
            for multiplier in range(1, 4):
                shortest = next(
                    (size for size in range(1, 61)
                     if interval_is_large(first, first + size, exponent, multiplier, memo)),
                    None,
                )
                for available in range(61):
                    got = least_card(first, exponent, multiplier, available)
                    if shortest is not None and shortest <= available:
                        assert got == shortest, (first, exponent, multiplier, available)
                    else:
                        assert got > available, (first, exponent, multiplier, available)


@pytest.mark.parametrize("theta", ["top", "x < y or z < y", "z < y"])
def test_large_color_class_matches_a_homogeneous_subset_search(theta):
    sentence = TOP if theta == "top" else Pi03Sentence(parse(theta))
    rng = random.Random(1607)
    for _ in range(60):
        values = tuple(sorted(rng.sample(range(3, 15), rng.randint(1, 10))))
        colors = {v: rng.randrange(3) for v in values}
        oracle = BruteForcePlain(values)
        for n, k in ((0, 1), (0, 3), (1, 1)):
            spec = LargenessSpec(n, k, sentence)

            def large(sub):
                return oracle.is_large(sub, n, k) if sentence.is_top else bf_large_t(sub, n, k, sentence)

            # the least color with a large homogeneous subset, over every subset
            want = min(
                (c for c in set(colors.values())
                 for size in range(1, len(values) + 1)
                 for sub in combinations([v for v in values if colors[v] == c], size)
                 if large(sub)),
                default=None,
            )
            got = large_color_class(values, colors.__getitem__, spec)
            if want is None:
                assert got is None, (values, colors, n, k)
                continue
            color, cls, cert = got
            assert color == want, (values, colors, n, k)
            assert cls.elements == tuple(v for v in values if colors[v] == want)
            assert verify_certificate(cls, cert, spec)


def test_exponents_past_the_recursion_limit_are_decided():
    for cap in (10, 10 ** 6, 10 ** 400):
        with pytest.raises(SizeOverflow):
            minimal_interval_card(3, 5000, cap)
    assert check_large(FinSet.interval(3, 10), LargenessSpec(5000)) is None
    assert not is_large(FinSet.interval(3, 2000), LargenessSpec(1500, 1, TOP))
    # a positive minimum needs 2^n elements at exponent n; a zero one does not
    assert is_plain_large((1, 2, 3, 4), 2) and not is_plain_large((1, 2, 3), 2)
    assert is_plain_large((0,), 5000)


def test_certificate_classes_have_no_instance_dict():
    cert = check_large(FinSet.interval(3, 38), LargenessSpec(2))
    node = cert.blocks[0].cert
    for obj in (cert, cert.blocks[0], node, node.children[0].cert.children[0].cert):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_verification_leaves_no_cycle_holding_the_sentence():
    # with the collector off, only reference counting frees the sentence
    x = FinSet.interval(3, 40)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sentence = Pi03Sentence(parse("x < y or z < y"))
        spec = LargenessSpec(2, 1, sentence)
        cert = check_large(x, spec)
        assert cert is not None
        assert verify_certificate(x, cert, spec, paranoid=True)
        ref = weakref.ref(sentence)
        del sentence, spec
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
