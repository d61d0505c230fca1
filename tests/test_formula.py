import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge import formula as fm
from omegalarge.formula import (
    TOP,
    FormulaSyntaxError,
    Pi03Sentence,
    PrefixShapeError,
    PrefixedSentence,
    QuantStep,
    RtLikeStatement,
    SecondOrderParam,
    compile_formula,
    evaluate,
    formula_text,
    parse,
    weakly_pi04_transform,
)
from omegalarge.sets import ColoringTable, FinSet, restrict_coloring

from oracles import naive_eval, random_formula


def test_parse_examples():
    phi = parse("forall z < y . x < z")
    assert isinstance(phi, fm.FQuant) and phi.kind == "forall"

    phi = parse("exists y < x + 1 . y = x")
    for x in range(6):
        assert evaluate(phi, {"x": x})

    with pytest.raises(FormulaSyntaxError):
        parse("forall z . x < z")  # missing bound


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("x < ?")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse("x in B")
    with pytest.raises(FormulaSyntaxError):
        parse("x < y extra")


def test_print_parse_roundtrip_samples():
    texts = [
        "true",
        "not (x < y and y < z)",
        "x + 1 * y < z ^ 2 or x = y",
        "forall v < x + y . exists w < v . w in A -> v <= x",
        "(x < y -> y < z) -> x < z",
        "a + 1 < x and 3 in A",
    ]
    for text in texts:
        phi = parse(text)
        again = parse(formula_text(phi))
        assert again == phi, text


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        phi = random_formula(rng, ["x", "y"], rng.randrange(1, 9))
        assert parse(formula_text(phi)) == phi


@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip_property(seed, size):
    rng = random.Random(seed)
    phi = random_formula(rng, ["x", "y", "z"], size)
    assert parse(formula_text(phi)) == phi


def test_eval_examples():
    assert evaluate(fm.TRUE, {})
    assert evaluate(parse("exists y < 1 . 0 = 0"), {})
    param = SecondOrderParam("010000")
    assert not evaluate(parse("5 in A"), {}, param=param)
    assert evaluate(parse("1 in A"), {}, param=param)


def test_membership_beyond_length_is_false_and_reported():
    param = SecondOrderParam("01")
    seen = []
    assert not evaluate(parse("7 in A"), {}, param=param, on_beyond_length=seen.append)
    assert seen == [7]


def test_uncovered_variable_rejected():
    with pytest.raises(fm.UncoveredVariable):
        evaluate(parse("x < y"), {"x": 1})


def test_eval_matches_naive_oracle_and_compiler():
    rng = random.Random(20260809)
    agree = 0
    for _ in range(2500):
        phi = random_formula(rng, ["x", "y"], rng.randrange(1, 9))
        env = {"x": rng.randrange(17), "y": rng.randrange(17)}
        a = rng.randrange(5)
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
        want = naive_eval(phi, env, a, bits)
        got = evaluate(phi, env, a=a, param=SecondOrderParam(bits))
        assert got == want
        compiled = compile_formula(phi, ["x", "y"], a, SecondOrderParam(bits))
        assert compiled(env["x"], env["y"]) == want
        agree += 1
    assert agree == 2500


def test_pi03_sentence_validation_and_bounded_check():
    with pytest.raises(ValueError):
        Pi03Sentence(parse("w < x"))
    t = Pi03Sentence(parse("y = x + 1 and true"))
    # forall x < 4 exists y < 9 forall z < 10: y = x + 1
    assert t.holds_bounded(4, 9, 10)
    assert not Pi03Sentence(parse("y < x")).holds_bounded(4, 9, 10)
    assert TOP.holds_bounded(10 ** 9, 0, 10 ** 9)  # short-circuit


def test_sentence_json_roundtrip():
    t = Pi03Sentence(parse("x < y and 2 in A"), 5, SecondOrderParam("0010"))
    u = Pi03Sentence.from_json(t.to_json())
    assert u.theta == t.theta and u.param_a == 5 and u.param_A.bits == "0010"
    assert u.floor() == 5


def _pairs_table(values, fn):
    dom = FinSet(tuple(values))
    return restrict_coloring(
        ColoringTable.from_function(dom, 2, 2, fn), dom
    )


def test_builtin_psi0_transitive_matches_triple_scan():
    rng = random.Random(3)
    stmt = RtLikeStatement(2, 2, fm.TRANSITIVE)
    for size in range(2, 8):
        for _ in range(40):
            colors = {}
            vals = tuple(range(3, 3 + size))

            def f(x, y):
                return colors.setdefault((x, y), rng.randrange(2))

            table = _pairs_table(vals, f)
            direct = True
            idx = table.domain.elements
            for i in range(size):
                for j in range(i + 1, size):
                    for k in range(j + 1, size):
                        for c in range(2):
                            if (
                                table(idx[i], idx[j]) == c
                                and table(idx[j], idx[k]) == c
                                and table(idx[i], idx[k]) != c
                            ):
                                direct = False
            assert stmt.psi0_holds(table) == direct


def test_builtin_psi0_order_isomorphism_invariance():
    # psi0 must depend only on the index table, never raw domain values:
    # exhaust all 2-colorings of pairs over up to 5 points for both domains
    from itertools import product
    from math import comb

    shapes = [
        (FinSet((3, 4)), FinSet((50, 70))),
        (FinSet((3, 4, 5)), FinSet((11, 12, 90))),
        (FinSet((3, 4, 5, 6)), FinSet((5, 25, 26, 44))),
        (FinSet((3, 4, 5, 6, 7)), FinSet((10, 20, 30, 40, 99))),
    ]
    for name in fm.BUILTIN_PSI0:
        stmt = RtLikeStatement(2, 2, name)
        for doms in shapes:
            pairs = comb(len(doms[0]), 2)
            for bits in product(range(2), repeat=pairs):
                verdicts = [
                    stmt.psi0_holds(restrict_coloring(ColoringTable(d, 2, 2, tuple(bits)), d))
                    for d in doms
                ]
                assert verdicts[0] == verdicts[1]


def test_formula_psi0_reads_coded_table():
    # "some pair has color 1": exists i < a * a . i in A  (a = domain size,
    # table coded as bits in lexicographic order)
    stmt = RtLikeStatement(2, 2, parse("exists i < a * a . i in A"))
    dom = FinSet((3, 4, 5))
    all_zero = ColoringTable(dom, 2, 2, (0, 0, 0))
    one_hot = ColoringTable(dom, 2, 2, (0, 1, 0))
    assert not stmt.psi0_holds(restrict_coloring(all_zero, dom))
    assert stmt.psi0_holds(restrict_coloring(one_hot, dom))


def _std_prefix(matrix):
    return PrefixedSentence(
        (QuantStep("exists", "x"), QuantStep("forall", "y"), QuantStep("exists", "z")),
        matrix,
    )


def test_weakly_pi04_transform_shape():
    s = _std_prefix(parse("x < z and y < z"))
    out = weakly_pi04_transform(s)
    kinds = [(q.kind, q.bound) for q in out.prefix]
    assert kinds == [
        ("exists", None),
        ("forall", None),
        ("exists", "x"),
        ("forall", "y"),
        ("exists", None),
    ]
    assert out.prefix[2].var == "x'" and out.prefix[3].var == "y'"
    assert out.matrix == parse("x' < z and y' < z")


def test_weakly_pi04_transform_ignores_absent_variables():
    s = _std_prefix(parse("z = z"))
    out = weakly_pi04_transform(s)
    assert len(out.prefix) == 5
    assert out.matrix == parse("z = z")


def test_weakly_pi04_transform_twice_errors():
    s = _std_prefix(parse("x < z"))
    with pytest.raises(PrefixShapeError):
        weakly_pi04_transform(weakly_pi04_transform(s))


def test_prefixed_sentence_json_roundtrip():
    s = _std_prefix(parse("x + y < z"))
    out = weakly_pi04_transform(s)
    again = PrefixedSentence.from_json(out.to_json())
    assert again == out


@pytest.mark.parametrize("bits", ["012", "0 1", "\uff11", "\u00b9", "01\n"])
def test_second_order_param_rejects_non_bit_strings(bits):
    # fullwidth and superscript one are digits to str.isdigit, not bits
    with pytest.raises(ValueError):
        SecondOrderParam(bits)


def test_second_order_param_accepts_bit_strings():
    assert SecondOrderParam("").length == 0
    param = SecondOrderParam("0110")
    assert [param.member(i) for i in range(5)] == [False, True, True, False, False]
