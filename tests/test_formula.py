import gc
import json
import random
import weakref
from itertools import combinations

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
from omegalarge import sets
from omegalarge.sets import ColoringTable, FinSet

from oracles import (
    closure_compile_formula,
    descent_parse,
    descent_variable_name,
    holds_bounded_literal,
    naive_eval,
    per_tuple_restrict_coloring,
    random_formula,
    recursive_formula_text,
    recursive_rename_free,
    table_psi0_holds,
)


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


@pytest.mark.parametrize("text,position", [("x < é", 4), ("x < ²", 4), ("x <\u00a0y", 3), ("x\u00e9 < y", 1)])
def test_a_character_past_ascii_is_a_syntax_error_at_its_position(text, position):
    # names, numerals and white space are ASCII by the grammar
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.position == position


# tokens of the grammar and a few characters outside it, for token soups
_SOUP = [
    "x", "y", "z'", "_w", "v0", "a", "A", "0", "17", "->", "<=", "<", "=", "+", "*", "^", "(", ")", ".",
    "and", "or", "not", "in", "forall", "exists", "true", "false", "-", ">", "?", "'", "\x00",
]
_PRINTED = st.builds(
    lambda seed, size: formula_text(random_formula(random.Random(seed), ["x", "y", "z"], size)),
    st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=12),
)


@st.composite
def _damaged(draw):
    """A printed formula with a span of up to four characters replaced by
    a token or by nothing."""
    text = draw(_PRINTED)
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    end = draw(st.integers(min_value=cut, max_value=min(len(text), cut + 4)))
    return text[:cut] + draw(st.sampled_from(["", *_SOUP])) + text[end:]


_SOUPS = st.lists(
    st.tuples(st.sampled_from(_SOUP), st.sampled_from(["", " ", "\t", "\n", "\x1c", "\x1f"])), max_size=16
).map(lambda pairs: "".join(token + space for token, space in pairs))


def _parsed(reader, text: str):
    """The formula reader reads from text, or its syntax error's position
    and message."""
    try:
        return reader(text)
    except FormulaSyntaxError as err:
        return err.position, str(err)


@given(st.one_of(_PRINTED, _damaged(), _SOUPS, st.text(st.characters(max_codepoint=127), max_size=24)))
@settings(max_examples=1000, deadline=None)
def test_parser_matches_the_descent_oracle_on_ascii_text(text):
    assert _parsed(parse, text) == _parsed(descent_parse, text)


@given(st.one_of(st.sampled_from(_SOUP), st.text(st.characters(max_codepoint=127), max_size=6)))
@settings(max_examples=300, deadline=None)
def test_variable_names_match_the_descent_oracle_on_ascii_text(name):
    assert fm._is_variable_name(name) == descent_variable_name(name)


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


def test_printer_and_renamer_match_the_recursive_oracles():
    # the renaming maps a free variable onto a binder's name, and a binder's
    # name onto a free one, so shadowing and capture are both exercised
    rng = random.Random(20261020)
    mapping = {"x": "q0", "y": "y'", "q1": "x"}
    for _ in range(10_000):
        phi = random_formula(rng, ["x", "y", "z"], rng.randrange(1, 14))
        assert formula_text(phi) == recursive_formula_text(phi)
        assert fm.rename_free(phi, mapping) == recursive_rename_free(phi, mapping), recursive_formula_text(phi)


@pytest.mark.parametrize(
    "text",
    [
        "x < " + " + ".join(f"y ^ {i % 3}" for i in range(3000)),
        "x < " + " * ".join(f"(y + {i})" for i in range(3000)),
        " and ".join(f"x < y + {i}" for i in range(3000)),
        " or ".join(f"not x = {i} * y" for i in range(3000)),
        " -> ".join(f"x < y + {i}" for i in range(3000)),
    ],
    ids=["plus-3000", "times-3000", "and-3000", "or-3000", "imp-3000"],
)
def test_flat_chains_print_and_rename_past_the_recursion_limit(text):
    # texts are compared, not formulas: equality of records nested this
    # deep recurses past the interpreter's limit
    phi = parse(text)
    assert formula_text(phi) == text
    renamed = fm.rename_free(phi, {"x": "w", "y": "x"})
    assert formula_text(renamed) == text.replace("x", "w").replace("y", "x")


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
    # an environment binds naturals only
    with pytest.raises(ValueError, match="x = -1 is not a natural number"):
        evaluate(parse("x + 1 = 0"), {"x": -1})


@pytest.mark.parametrize("bits,ok", [
    ("", True), ("0101", True), ("2", False), ("0a1", False), ("１", False), ("0 1", False), ("\x00", False),
])
def test_param_bits_are_a_string_over_0_1(bits, ok):
    if ok:
        assert SecondOrderParam(bits).bits == bits
    else:
        with pytest.raises(ValueError, match=r"^bits must be a string over 0/1$"):
            SecondOrderParam(bits)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("01") | st.characters(), max_size=12))
def test_param_bits_check_agrees_with_counting_the_digits(bits):
    try:
        SecondOrderParam(bits)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == (bits.count("0") + bits.count("1") == len(bits))


def test_uncovered_variable_rejected():
    with pytest.raises(fm.UncoveredVariable):
        evaluate(parse("x < y"), {"x": 1})


def test_eval_matches_the_naive_and_closure_oracles():
    rng = random.Random(20260809)
    agree = 0
    for _ in range(2500):
        phi = random_formula(rng, ["x", "y"], rng.randrange(1, 9))
        env = {"x": rng.randrange(17), "y": rng.randrange(17)}
        a = rng.randrange(5)
        param = SecondOrderParam("".join(rng.choice("01") for _ in range(rng.randrange(0, 12))))
        want = naive_eval(phi, env, a, param.bits)
        assert evaluate(phi, env, a=a, param=param) == want
        assert closure_compile_formula(phi, ["x", "y"], a, param.member)(env["x"], env["y"]) == want
        agree += 1
    assert agree == 2500


@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=1, max_value=12))
@settings(max_examples=400, deadline=None)
def test_generated_theta_matches_the_closure_oracle(seed, size):
    rng = random.Random(seed)
    # q0 is free here and random_formula binds q0 too, so quantifiers shadow
    # free variables as well as each other; random terms bring in `a` and
    # exponent 0, and values up to 16 read A beyond its coded length
    variables = ["x", "y", "z", "q0"]
    phi = random_formula(rng, variables, size)
    a = rng.randrange(5)
    param = SecondOrderParam("".join(rng.choice("01") for _ in range(rng.randrange(0, 12))))
    # both record their membership queries: the same ones, in the same order
    generated_calls, oracle_calls = [], []
    generated = compile_formula(phi, variables)(a, lambda i: generated_calls.append(i) or param.member(i))
    oracle = closure_compile_formula(phi, variables, a, lambda i: oracle_calls.append(i) or param.member(i))
    for _ in range(8):
        values = [rng.randrange(17) for _ in variables]
        got = generated(*values)
        assert type(got) is bool and got == oracle(*values), formula_text(phi)
        assert generated_calls == oracle_calls, formula_text(phi)


def _agrees_with_naive_eval(phi, variables, a=0, bits=""):
    fn = compile_formula(phi, variables)(a, SecondOrderParam(bits).member)
    rng = random.Random(5)
    for _ in range(6):
        env = {name: rng.randrange(9) for name in variables}
        assert fn(*env.values()) == naive_eval(phi, env, a, bits), env


@pytest.mark.parametrize(
    "text",
    [
        " or ".join(f"x + {i} = y" for i in range(600)),
        "not " * 600 + "x < y",
        "x < y" + " + 1" * 400,
        " and ".join(f"not {i} in A -> x * {i} < y" for i in range(300)),
    ],
    ids=["or-600", "not-600", "plus-400", "and-imp-300"],
)
def test_generated_theta_keeps_long_chains_flat(text):
    _agrees_with_naive_eval(parse(text), ["x", "y"], bits="0110100")


def _nest(depth, wrap, start):
    for i in range(depth):
        start = wrap(i, start)
    return start


@pytest.mark.parametrize(
    "phi",
    [
        # bound 1, or the evaluation takes 2^240 steps; the innermost atom
        # reads the outermost bound variable through every helper
        _nest(240, lambda i, phi: fm.FQuant("forall", f"w{i}", fm.TConst(1), fm.FOr(phi, parse("x = z"))),
              parse("w0 + w239 + x < y")),
        _nest(400, lambda i, phi: fm.FAnd(parse("z < y"), fm.FOr(parse("y < x + z"), phi)), parse("x < y")),
        _nest(300, lambda i, phi: fm.FNot(fm.FAnd(parse(f"x < {i}"), phi)), parse("x < y")),
        fm.FCmp("<", _nest(300, lambda i, t: fm.TMul(fm.TAdd(t, fm.TConst(1)), fm.TVar("z")), fm.TVar("x")),
                fm.TVar("y")),
    ],
    ids=["quantifiers-240", "and-or-400", "not-and-300", "terms-300"],
)
def test_generated_theta_nests_past_the_parenthesis_limit(phi):
    # CPython parses at most 200 nested parentheses in one expression
    _agrees_with_naive_eval(phi, ["x", "y", "z"], bits="1" * 64)


def test_generated_theta_names_cannot_shadow():
    text = (
        "forall range < x + 2 . exists any < y + 1 . exists all < 3 . exists member < 3 . "
        "exists p0 < z + 1 . exists v1 < 2 . range + any < all * p0 + member + v1 and v1 in A"
    )
    _agrees_with_naive_eval(parse(text), ["x", "y", "z"], a=2, bits="0101")
    # free variables with the generated names, in swapped positions
    phi = parse("exists p0 < v1 . p0 + member = v1 and a < p0 -> member in A")
    _agrees_with_naive_eval(phi, ["v1", "member", "p0"], a=1, bits="0011")


def test_generated_theta_groups_negative_constants():
    # the parser reads naturals only, but the AST takes any int
    for phi in (
        fm.FCmp("=", fm.TPow(fm.TConst(-2), 2), fm.TVar("x")),
        fm.FCmp("<", fm.TMul(fm.TVar("x"), fm.TConst(-1)), fm.TPow(fm.TConst(-1), 3)),
    ):
        _agrees_with_naive_eval(phi, ["x"])
        assert evaluate(phi, {"x": 4}) == naive_eval(phi, {"x": 4}, 0, "")


def test_compile_rejects_uncovered_variables():
    with pytest.raises(fm.UncoveredVariable):
        compile_formula(parse("x < w"), ["x"])
    with pytest.raises(fm.UncoveredVariable):
        compile_formula(parse("exists w < 3 . w < v"), ["x"])


def test_one_compilation_binds_many_parameters():
    # deep enough for helper functions, which must read the binding's a and A
    phi = _nest(300, lambda i, phi: fm.FNot(fm.FAnd(parse(f"x < {i}"), phi)), parse("x + a in A"))
    bind = compile_formula(phi, ["x"])
    for a, bits in [(0, "1" * 9), (2, "0" * 9), (1, "0101010101"), (3, "")]:
        fn = bind(a, SecondOrderParam(bits).member)
        assert [fn(x) for x in range(7)] == [naive_eval(phi, {"x": x}, a, bits) for x in range(7)], (a, bits)


def test_formula_psi0_compiles_once_per_statement(monkeypatch):
    compiled = []
    monkeypatch.setattr(fm, "compile_formula", lambda *args: compiled.append(args) or compile_formula(*args))
    stmt = RtLikeStatement(1, 2, parse("forall i < a . not i in A"))
    dom = FinSet((3, 4, 5))
    f = ColoringTable(dom, 1, 2, (0, 0, 1))
    assert stmt.psi0_holds(f, (3, 4))
    assert not stmt.psi0_holds(f, dom)
    assert stmt.psi0_holds(f, FinSet((3,)))
    assert len(compiled) == 1


def test_compiled_theta_is_freed_without_the_collector():
    fn = compile_formula(parse("x < y or z in A"), ["x", "y", "z"])(0, SecondOrderParam("01").member)
    ref = weakref.ref(fn)
    gc.disable()
    try:
        del fn
        assert ref() is None
    finally:
        gc.enable()


def test_pi03_sentence_validation_and_bounded_check():
    with pytest.raises(ValueError):
        Pi03Sentence(parse("w < x"))
    t = Pi03Sentence(parse("y = x + 1 and true"))
    # forall x < 4 exists y < 9 forall z < 10: y = x + 1
    assert t.holds_bounded(4, 9, 10)
    assert not Pi03Sentence(parse("y < x")).holds_bounded(4, 9, 10)
    assert TOP.holds_bounded(10 ** 9, 0, 10 ** 9)  # short-circuit


_BOUND = st.integers(min_value=0, max_value=12)


@given(
    st.integers(min_value=0, max_value=2 ** 63),
    st.integers(min_value=0, max_value=10),
    st.lists(st.tuples(_BOUND, _BOUND, _BOUND), min_size=20, max_size=50),
)
@settings(max_examples=150, deadline=None)
def test_holds_bounded_matches_the_literal_triple_loop(seed, size, queries):
    # size 0 is TOP; A is at most 12 bits long, so reads at values up to
    # 12 and beyond (through `a` and arithmetic) go past its coded length
    rng = random.Random(seed)
    if size == 0:
        sentence = TOP
    else:
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 13)))
        theta = random_formula(rng, ["x", "y", "z"], size)
        sentence = Pi03Sentence(theta, rng.randrange(5), SecondOrderParam(bits))
    # one sentence object answers every query, in hypothesis's order; TOP
    # is no constraint at all, so it holds even where no y < 0 exists
    for x_bound, y_bound, z_bound in queries:
        want = sentence.is_top or holds_bounded_literal(sentence, x_bound, y_bound, z_bound)
        assert sentence.holds_bounded(x_bound, y_bound, z_bound) == want, (
            formula_text(sentence.theta), x_bound, y_bound, z_bound)


# θ whose least witness y grows with the z bound, or which has none for
# some x, so a new (x, Z) entry is seeded from a witness entry as well as
# from an exhausted scan
_GROWING = ("z < x + y", "z < y or z in A", "y < x and z < x + y + 3", "x + z < y + y")


@given(
    st.integers(min_value=0, max_value=2 ** 63),
    st.one_of(st.sampled_from(_GROWING), st.integers(min_value=1, max_value=10)),
    st.sampled_from(["rising", "falling", "mixed"]),
)
@settings(max_examples=200, deadline=None)
def test_seeded_y_frontier_matches_the_literal_triple_loop(seed, theta, order):
    # few x and y bounds per z bound, so most queries reuse an (x, Z)
    # entry or seed a new one from the entry at a nearby Z
    rng = random.Random(seed)
    theta = parse(theta) if isinstance(theta, str) else random_formula(rng, ["x", "y", "z"], theta)
    bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 13)))
    sentence = Pi03Sentence(theta, rng.randrange(5), SecondOrderParam(bits))
    fresh = Pi03Sentence(theta, sentence.param_a, sentence.param_A)
    xs, ys, zs = rng.sample(range(1, 8), 2), rng.sample(range(13), 3), rng.sample(range(13), 5)
    if order != "mixed":
        zs.sort(reverse=order == "falling")
    for z_bound in zs:
        for _ in range(4):
            q = (rng.choice(xs), rng.choice(ys), z_bound)
            want = sentence.is_top or holds_bounded_literal(fresh, *q)
            assert sentence.holds_bounded(*q) == want, (formula_text(theta), order, q)


def test_holds_bounded_evaluates_each_triple_at_most_once(monkeypatch):
    sentence = Pi03Sentence(parse("z < x + y or z in A"), 0, SecondOrderParam("0110011101"))
    calls = []
    theta_at = Pi03Sentence.theta_at

    def counted(self, x, y, z):
        if self is sentence:
            calls.append((x, y, z))
        return theta_at(self, x, y, z)

    monkeypatch.setattr(Pi03Sentence, "theta_at", counted)
    rng = random.Random(13)
    queries = [(rng.randrange(16), rng.randrange(16), rng.randrange(16)) for _ in range(300)]
    answers = [sentence.holds_bounded(*q) for q in queries]
    assert calls and len(calls) == len(set(calls))
    first = len(calls)
    # replaying the same sequence answers from the memos alone
    assert [sentence.holds_bounded(*q) for q in queries] == answers
    assert len(calls) == first
    # and the answers are the literal ones, read on a fresh sentence object
    fresh = Pi03Sentence(sentence.theta, 0, sentence.param_A)
    assert answers == [holds_bounded_literal(fresh, *q) for q in queries]


def test_sentence_json_roundtrip():
    t = Pi03Sentence(parse("x < y and 2 in A"), 5, SecondOrderParam("0010"))
    u = Pi03Sentence.from_json(t.to_json())
    assert u.theta == t.theta and u.param_a == 5 and u.param_A.bits == "0010"
    assert u.floor() == 5


def test_builtin_psi0_transitive_matches_triple_scan():
    rng = random.Random(3)
    stmt = RtLikeStatement(2, 2, fm.TRANSITIVE)
    for size in range(2, 8):
        for _ in range(40):
            dom = FinSet(tuple(range(3, 3 + size)))
            f = ColoringTable.random(dom, 2, 2, rng)
            idx = dom.elements
            direct = True
            for i in range(size):
                for j in range(i + 1, size):
                    for k in range(j + 1, size):
                        for c in range(2):
                            if f(idx[i], idx[j]) == c and f(idx[j], idx[k]) == c and f(idx[i], idx[k]) != c:
                                direct = False
            assert stmt.psi0_holds(f, dom) == direct


def test_builtin_psi0_order_isomorphism_invariance():
    # psi0 must depend only on the order type of the candidate, never raw
    # domain values: exhaust all 2-colorings of pairs over up to 5 points
    # for both domains
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
                verdicts = [stmt.psi0_holds(ColoringTable(d, 2, 2, tuple(bits)), d) for d in doms]
                assert verdicts[0] == verdicts[1]


def test_formula_psi0_reads_coded_table():
    # "some pair has color 1": exists i < a * a . i in A  (a = candidate
    # size, f on its pairs coded as bits in lexicographic order)
    stmt = RtLikeStatement(2, 2, parse("exists i < a * a . i in A"))
    dom = FinSet((3, 4, 5))
    all_zero = ColoringTable(dom, 2, 2, (0, 0, 0))
    one_hot = ColoringTable(dom, 2, 2, (0, 1, 0))
    assert not stmt.psi0_holds(all_zero, dom)
    assert stmt.psi0_holds(one_hot, dom)
    # (3, 5) is the one pair colored 1; the candidates without it read 0s
    assert stmt.psi0_holds(one_hot, (3, 5))
    assert not stmt.psi0_holds(one_hot, (3, 4)) and not stmt.psi0_holds(one_hot, (4, 5))


def test_a_statement_refuses_a_negative_arity():
    with pytest.raises(ValueError, match="arity must be non-negative"):
        RtLikeStatement(-1, 2, fm.HOMOGENEOUS)


# the second reads the order of the coded colors as well as a
_PSI0_FORMULAS = ("exists i < a * a . i in A", "0 in A and not a in A")


def _answer(call):
    """call()'s answer, or ValueError where it raises one."""
    try:
        return call()
    except ValueError:
        return ValueError


@given(
    st.sampled_from(fm.BUILTIN_PSI0 + _PSI0_FORMULAS),
    st.integers(0, 3),
    st.lists(st.integers(0, 30), unique=True, max_size=7),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_psi0_read_in_place_matches_the_reindexed_table(psi0, arity, values, data):
    formula = psi0 not in fm.BUILTIN_PSI0
    arity = 2 if psi0 in fm.PAIR_PSI0 else arity
    colors = 2 if formula else data.draw(st.integers(1, 3))
    stmt = RtLikeStatement(arity, colors, parse(psi0) if formula else psi0)
    dom = FinSet(tuple(sorted(values)))
    f = ColoringTable.random(dom, arity, colors, data.draw(st.randoms(use_true_random=False)))
    # a candidate inside the domain, and one that may leave it (arity 0, or
    # fewer points than the arity, has no tuple that leaves it)
    inside = data.draw(st.lists(st.sampled_from(values), unique=True)) if values else []
    anywhere = data.draw(st.lists(st.integers(0, 35), unique=True, max_size=6))
    for y in (FinSet(tuple(sorted(inside))), FinSet(tuple(sorted(anywhere)))):
        want = _answer(lambda: table_psi0_holds(stmt, per_tuple_restrict_coloring(f, y)))
        assert _answer(lambda: stmt.psi0_holds(f, y)) == want
        assert _answer(lambda: stmt.psi0_holds(f, y.elements)) == want
        # solution_ok asks it of y, or of each subset of y in size order
        subs = [y] if not formula else [FinSet(s) for n in range(len(y) + 1) for s in combinations(y, n)]
        want = _answer(lambda: all(table_psi0_holds(stmt, per_tuple_restrict_coloring(f, s)) for s in subs))
        assert _answer(lambda: stmt.solution_ok(f, y)) == want


def test_solution_ok_builds_no_table_or_set(monkeypatch):
    built = []
    for cls in (sets.FinSet, sets.ColoringTable):
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=cls.__post_init__: built.append(self) or init(self))
    dom = FinSet.interval(3, 9)
    f = ColoringTable.from_function(dom, 2, 2, lambda x, y: (x * y) % 2)
    built.clear()
    for psi0 in (*fm.BUILTIN_PSI0, parse(_PSI0_FORMULAS[1])):
        RtLikeStatement(2, 2, psi0).solution_ok(f, dom)
    assert built == []


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


def test_weakly_pi04_transform_avoids_bound_variables():
    # x' is bound in the matrix, so the fresh name for x must be another
    out = weakly_pi04_transform(_std_prefix(parse("exists x' < 5 . x < x'")))
    assert [q.var for q in out.prefix] == ["x", "y", "x''", "y'", "z"]
    assert out.matrix == parse("exists x' < 5 . x'' < x'")


def test_weakly_pi04_transform_rejects_a_repeated_variable():
    s = PrefixedSentence(
        (QuantStep("exists", "x"), QuantStep("forall", "x"), QuantStep("exists", "x")), parse("x < y")
    )
    with pytest.raises(PrefixShapeError, match="binds a variable twice"):
        weakly_pi04_transform(s)


@pytest.mark.parametrize(
    "step,message",
    [
        (["some", "x", None], "kind must be forall or exists"),
        (["exists", 5, None], "variable must be a variable name, not 5"),
        (["exists", "a", None], "variable must be a variable name"),
        (["exists", "and", None], "variable must be a variable name"),
        (["exists", "x y", None], "variable must be a variable name"),
        (["exists", "", None], "variable must be a variable name"),
    ],
    ids=["kind", "number", "constant-a", "keyword", "two-words", "empty"],
)
def test_prefixed_sentence_json_rejects_a_bad_step(step, message):
    text = json.dumps({"prefix": [step], "matrix": "x < y"})
    with pytest.raises(ValueError, match=message):
        PrefixedSentence.from_json(text)


def test_prefixed_sentence_json_rejects_a_name_past_ascii():
    # the prefix reads the same names as the parser
    text = json.dumps({"prefix": [["exists", "é", None]], "matrix": "x < y"})
    with pytest.raises(ValueError, match="variable must be a variable name"):
        PrefixedSentence.from_json(text)


@pytest.mark.parametrize("op", ["or", "and"])
def test_free_vars_reads_a_flat_chain_past_the_recursion_limit(op):
    phi = parse(f" {op} ".join(f"x < w + {i}" for i in range(3000)) + f" {op} exists v < 3 . v < y")
    assert fm.free_vars(phi) == {"x", "y", "w"}


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
