"""Record semantics of every value and result class in the package.

Each row builds one instance of a record class twice from the same fields.
Frozen records compare and hash field-wise and refuse assignment; result
records compare field-wise, are unhashable and take assignment.  Every
class's `repr` text is pinned, and so is the construction by keyword and
from defaults that the package and its tests use.
"""

import copy
import pickle
import random
import re
import sys
from contextlib import contextmanager

import pytest

import omegalarge.formula as fm
from omegalarge.cli import Outcome
from omegalarge.extract import DecomposeResult, FuseResult, PigeonholeResult
from omegalarge.formula import (
    EMPTY_PARAM,
    TOP,
    Pi03Sentence,
    PrefixedSentence,
    QuantStep,
    RtLikeStatement,
    SecondOrderParam,
    parse,
)
from omegalarge.grouping import GroupingWitness, SearchOutcome
from omegalarge.largeness import Block, Certificate, LargenessSpec, Leaf, Node
from omegalarge.lowerbound import BlockAddress, LowerBoundReport
from omegalarge.ramsey import BoundsRow, EmConstants, Mode, Verdict, _Sampled
from omegalarge.sets import ColoringTable, FinSet

S345 = FinSet((3, 4, 5))
F345 = ColoringTable(S345, 2, 2, (0, 1, 0))
X, Y = fm.TVar("x"), fm.TVar("y")
LEAF_BLOCK = Block(0, 1, Leaf(3))
CERT = Certificate(0, 1, (LEAF_BLOCK,))

# (class, positional fields, pinned repr); every field is a value whose
# repr is fixed, and each row's fields are built afresh on every call
FROZEN = [
    (fm.TConst, lambda: (5,), "TConst(value=5)"),
    (fm.TConstA, lambda: (), "TConstA()"),
    (fm.TVar, lambda: ("x",), "TVar(name='x')"),
    (fm.TAdd, lambda: (fm.TVar("x"), fm.TConst(1)), "TAdd(left=TVar(name='x'), right=TConst(value=1))"),
    (fm.TMul, lambda: (fm.TVar("x"), fm.TConst(1)), "TMul(left=TVar(name='x'), right=TConst(value=1))"),
    (fm.TPow, lambda: (fm.TVar("x"), 2), "TPow(base=TVar(name='x'), exponent=2)"),
    (fm.FTrue, lambda: (), "FTrue()"),
    (fm.FFalse, lambda: (), "FFalse()"),
    (fm.FCmp, lambda: ("<", X, Y), "FCmp(op='<', left=TVar(name='x'), right=TVar(name='y'))"),
    (fm.FIn, lambda: (X,), "FIn(term=TVar(name='x'))"),
    (fm.FNot, lambda: (fm.FTrue(),), "FNot(body=FTrue())"),
    (fm.FAnd, lambda: (fm.FTrue(), fm.FFalse()), "FAnd(left=FTrue(), right=FFalse())"),
    (fm.FOr, lambda: (fm.FTrue(), fm.FFalse()), "FOr(left=FTrue(), right=FFalse())"),
    (fm.FImp, lambda: (fm.FTrue(), fm.FFalse()), "FImp(left=FTrue(), right=FFalse())"),
    (fm.FQuant, lambda: ("forall", "w", Y, fm.FTrue()),
     "FQuant(kind='forall', var='w', bound=TVar(name='y'), body=FTrue())"),
    (SecondOrderParam, lambda: ("0110",), "SecondOrderParam(bits='0110')"),
    (Pi03Sentence, lambda: (parse("x < y"), 2, SecondOrderParam("01")),
     "Pi03Sentence(theta=FCmp(op='<', left=TVar(name='x'), right=TVar(name='y')), param_a=2, "
     "param_A=SecondOrderParam(bits='01'))"),
    (RtLikeStatement, lambda: (2, 2, "homogeneous"),
     "RtLikeStatement(arity=2, colors=2, psi0='homogeneous')"),
    (QuantStep, lambda: ("exists", "x", "y"), "QuantStep(kind='exists', var='x', bound='y')"),
    (PrefixedSentence, lambda: ((QuantStep("forall", "x"),), fm.FTrue()),
     "PrefixedSentence(prefix=(QuantStep(kind='forall', var='x', bound=None),), matrix=FTrue())"),
    (FinSet, lambda: ((3, 4, 5),), "FinSet(elements=(3, 4, 5))"),
    (ColoringTable, lambda: (S345, 2, 2, (0, 1, 0)),
     "ColoringTable(domain=FinSet(elements=(3, 4, 5)), arity=2, colors=2, table=(0, 1, 0))"),
    (LargenessSpec, lambda: (1, 2, TOP),
     "LargenessSpec(exponent=1, multiplier=2, sentence=Pi03Sentence(theta=FTrue(), param_a=0, "
     "param_A=SecondOrderParam(bits='')))"),
    (Leaf, lambda: (3,), "Leaf(witness=3)"),
    (Node, lambda: (3, (Block(0, 1, Leaf(4)),)),
     "Node(head=3, children=(Block(lo=0, hi=1, cert=Leaf(witness=4)),))"),
    (Block, lambda: (0, 1, Leaf(3)), "Block(lo=0, hi=1, cert=Leaf(witness=3))"),
    (Certificate, lambda: (0, 1, (LEAF_BLOCK,)),
     "Certificate(exponent=0, multiplier=1, blocks=(Block(lo=0, hi=1, cert=Leaf(witness=3)),))"),
    (BlockAddress, lambda: ((0, 1), 2), "BlockAddress(path=(0, 1), level=2)"),
    (Verdict, lambda: ("true", "why"), "Verdict(value='true', reason='why')"),
    (Mode, lambda: ("sampled", 5, 8), "Mode(kind='sampled', seed=5, trials=8)"),
    (EmConstants, lambda: ((0,), LargenessSpec.card(2)),
     "EmConstants(block_exponents=(0,), transversal=LargenessSpec(exponent=0, multiplier=2, "
     "sentence=Pi03Sentence(theta=FTrue(), param_a=0, param_A=SecondOrderParam(bits=''))))"),
    (BoundsRow, lambda: (0, 1, (2, 3, 4, 5), 6, 7, 8, 9),
     "BoundsRow(n=0, pigeonhole=1, grouping_chain=(2, 3, 4, 5), em=6, ads=7, rt22=8, lower=9)"),
    (GroupingWitness, lambda: ((FinSet((3,)),), F345),
     "GroupingWitness(blocks=(FinSet(elements=(3,)),), coloring=ColoringTable(domain="
     "FinSet(elements=(3, 4, 5)), arity=2, colors=2, table=(0, 1, 0)))"),
]

RESULTS = [
    (fm._Token, lambda: ("num", "5", 0), "_Token(kind='num', text='5', pos=0)"),
    (LowerBoundReport, lambda: ("confirmed", True, 1, 2, 3, S345, "d"),
     "LowerBoundReport(status='confirmed', complete=True, checked_subsets=1, sub_instances=2, "
     "skipped=3, witness=FinSet(elements=(3, 4, 5)), detail='d')"),
    (_Sampled, lambda: (None, 3), "_Sampled(rng=None, trials=3)"),
    (SearchOutcome, lambda: ("absent", None, None, None, 4, "d"),
     "SearchOutcome(status='absent', witness=None, subset=None, certificate=None, steps=4, detail='d')"),
    (PigeonholeResult, lambda: (S345, 1, CERT, False, True),
     "PigeonholeResult(homogeneous=FinSet(elements=(3, 4, 5)), color=1, "
     "certificate=Certificate(exponent=0, multiplier=1, blocks=(Block(lo=0, hi=1, "
     "cert=Leaf(witness=3)),)), used_fallback=False, counting_inequality_held=True)"),
    (DecomposeResult, lambda: ((S345,), (CERT,), FinSet((3,))),
     "DecomposeResult(blocks=(FinSet(elements=(3, 4, 5)),), block_certificates="
     "(Certificate(exponent=0, multiplier=1, blocks=(Block(lo=0, hi=1, cert=Leaf(witness=3)),)),), "
     "minima=FinSet(elements=(3,)))"),
    (FuseResult, lambda: (S345, CERT),
     "FuseResult(fused=FinSet(elements=(3, 4, 5)), certificate=Certificate(exponent=0, "
     "multiplier=1, blocks=(Block(lo=0, hi=1, cert=Leaf(witness=3)),)))"),
    (Outcome, lambda: (0, {"result": "ok"}, "fine"), "Outcome(code=0, payload={'result': 'ok'}, human='fine')"),
]

ROWS = [pytest.param(*row, id=row[0].__name__) for row in FROZEN + RESULTS]


@pytest.mark.parametrize("cls,fields,text", ROWS)
def test_equal_fields_give_equal_records(cls, fields, text):
    a, b = cls(*fields()), cls(*fields())
    assert a is not b and a == b and not a != b
    assert repr(a) == repr(b) == text
    assert a != object() and a != fields()  # never equal to another type, nor to its fields


@pytest.mark.parametrize("cls,fields,text", [pytest.param(*row, id=row[0].__name__) for row in FROZEN])
def test_frozen_records_hash_and_refuse_assignment(cls, fields, text):
    a, b = cls(*fields()), cls(*fields())
    assert hash(a) == hash(b) and len({a, b}) == 1
    name = _first_field(text)
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert repr(a) == text


@pytest.mark.parametrize("cls,fields,text", [pytest.param(*row, id=row[0].__name__) for row in RESULTS])
def test_result_records_are_unhashable_and_take_assignment(cls, fields, text):
    a, b = cls(*fields()), cls(*fields())
    with pytest.raises(TypeError):
        hash(a)
    name = _first_field(text)
    setattr(a, name, "changed")
    assert getattr(a, name) == "changed" and a != b


def _first_field(text):
    """The first field named in a pinned repr, or any name for a record
    without fields."""
    m = re.match(r"\w+\((\w+)=", text)
    return m.group(1) if m else "value"


def test_each_field_takes_part_in_equality():
    # one changed field makes the records unequal, whichever field it is
    for cls, fields, _ in FROZEN + RESULTS:
        values = fields()
        base = cls(*values)
        for pos in range(len(values)):
            other = list(values)
            other[pos] = _other_value(values[pos])
            if other[pos] == values[pos]:
                continue
            try:
                changed = cls(*other)
            except (AttributeError, TypeError, ValueError):
                continue  # a field whose value the constructor checks
            assert changed != base, (cls.__name__, pos)


def _other_value(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, str):
        return v + "1" if v not in ("<", "forall", "exists", "homogeneous", "sampled") else {
            "<": "=", "forall": "exists", "exists": "forall", "homogeneous": "transitive",
            "sampled": "exact"}[v]
    if isinstance(v, tuple):
        return v + v if v else (0,)
    return None


def test_same_shape_classes_stay_unequal():
    assert fm.TAdd(X, Y) != fm.TMul(X, Y)
    binary = [cls(fm.FTrue(), fm.FFalse()) for cls in (fm.FAnd, fm.FOr, fm.FImp)]
    assert len(set(binary)) == 3 and all(p != q for p in binary for q in binary if p is not q)
    assert fm.FTrue() != fm.FFalse() and len({fm.FTrue(), fm.FFalse()}) == 2
    assert Leaf(3) != BlockAddress((), 3) and FinSet((3, 4)) != (3, 4)
    assert fm.TConst(5) != 5 and Verdict("true") != ("true", "")


def test_keyword_construction_and_defaults():
    assert FinSet(elements=(5,)) == FinSet((5,))
    assert SecondOrderParam().bits == "" and SecondOrderParam() == EMPTY_PARAM
    s = Pi03Sentence(parse("x < y"))
    assert (s.param_a, s.param_A) == (0, EMPTY_PARAM)
    assert LargenessSpec(2) == LargenessSpec(2, 1, TOP) == LargenessSpec(exponent=2, sentence=TOP)
    assert QuantStep("exists", "x").bound is None
    assert QuantStep("exists", "x'", bound="x") == QuantStep("exists", "x'", "x")
    assert LargenessSpec.card(2) == LargenessSpec(0, 2, TOP) and LargenessSpec.card(0) == LargenessSpec.card(1)
    assert Verdict("true").reason == ""
    assert Mode() == Mode("exact", 1729, 200) and Mode("sampled", seed=5, trials=8).trials == 8
    row = BoundsRow(n=0, pigeonhole=1, grouping_chain=(2, 3, 4, 5), em=6, ads=7, rt22=8, lower=9)
    assert row == BoundsRow(0, 1, (2, 3, 4, 5), 6, 7, 8, 9)
    assert SearchOutcome("absent", steps=3) == SearchOutcome("absent", None, None, None, 3, "")
    report = LowerBoundReport("consistent", False, skipped=1, detail="view too large")
    assert (report.checked_subsets, report.sub_instances, report.witness) == (0, 0, None)
    assert LowerBoundReport("consistent", False, 3, skipped=1) == LowerBoundReport("consistent", False, 3, 0, 1)
    with pytest.raises(TypeError):
        LowerBoundReport("consistent", checked_subsets=1)  # `complete` has no default
    with pytest.raises(TypeError):
        QuantStep("exists", "x", var="y")  # a field given twice
    with pytest.raises(TypeError):
        FinSet()
    with pytest.raises(TypeError):
        Verdict("true", "a", "b")
    with pytest.raises(TypeError):
        Mode(colour=3)


def test_checks_run_on_construction_and_normalize():
    assert FinSet(("3", 4.0)).elements == (3, 4)
    for bad in (lambda: FinSet((4, 3)), lambda: FinSet((-2,)), lambda: SecondOrderParam("012"),
                lambda: LargenessSpec(-1), lambda: Mode("exhaustive"),
                lambda: RtLikeStatement(2, 0, "homogeneous"), lambda: ColoringTable(S345, 2, 2, (0, 1)),
                lambda: Pi03Sentence(parse("w < y"))):
        with pytest.raises(ValueError):
            bad()


def test_private_state_stays_out_of_equality_and_repr():
    a, b = Pi03Sentence(parse("x < y")), Pi03Sentence(parse("x < y"))
    assert a.holds_bounded(3, 3, 3) == b.holds_bounded(3, 3, 3)
    a.holds_bounded(4, 4, 4)  # only a's memos grow
    assert a == b and hash(a) == hash(b) and "_cache" not in repr(a)
    f = ColoringTable(S345, 2, 2, (0, 1, 0))
    assert f == F345 and "_pos" not in repr(f) and "_row" not in repr(f)
    psi = parse("a < 3")
    st = RtLikeStatement(2, 2, psi)
    assert st == RtLikeStatement(2, 2, parse("a < 3")) and "_bind_psi0" not in repr(st)
    for cls, args, name in ((ColoringTable, (S345, 2, 2, (0, 1, 0)), "_pos"),
                            (RtLikeStatement, (2, 2, psi), "_bind_psi0"),
                            (Pi03Sentence, (parse("x < y"),), "_cache")):
        with pytest.raises(TypeError):
            cls(*args, **{name: {}})


def test_copies_and_pickles_rebuild_through_the_constructor():
    for cls, fields, _ in FROZEN + RESULTS:
        a = cls(*fields())
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is cls and b == a and b is not a
    # a sentence's compiled theta and memos are rebuilt, not copied
    s = Pi03Sentence(parse("x < y or z < y"))
    t = pickle.loads(pickle.dumps(s))
    assert [t.holds_bounded(*q) for q in ((3, 3, 3), (3, 4, 3))] == [False, True]
    assert t._cache is not s._cache and copy.copy(s)._cache is not s._cache


def test_certificate_classes_stay_slotted():
    for obj in (CERT, LEAF_BLOCK, Leaf(3), Node(3, (LEAF_BLOCK,))):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _nest(depth, wrap, start):
    for i in range(depth):
        start = wrap(i, start)
    return start


# the nests of tests/test_formula.py, 480 to 800 AST levels deep
DEEP = {
    "quantifiers-240": lambda: _nest(
        240, lambda i, phi: fm.FQuant("forall", f"w{i}", fm.TConst(1), fm.FOr(phi, parse("x = z"))),
        parse("w0 + w239 + x < y")),
    "and-or-400": lambda: _nest(
        400, lambda i, phi: fm.FAnd(parse("z < y"), fm.FOr(parse("y < x + z"), phi)), parse("x < y")),
    "not-and-300": lambda: _nest(300, lambda i, phi: fm.FNot(fm.FAnd(parse(f"x < {i}"), phi)), parse("x < y")),
    "terms-300": lambda: fm.FCmp(
        "<", _nest(300, lambda i, t: fm.TMul(fm.TAdd(t, fm.TConst(1)), fm.TVar("z")), X), Y),
    "not-600": lambda: parse("not " * 600 + "x < y"),
    "plus-400": lambda: parse("x < y" + " + 1" * 400),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_deep_formulas_compare_hash_and_print(name):
    a, b = DEEP[name](), DEEP[name]()
    # comparison, hashing and repr recurse once per AST level, as they
    # always have; the default limit of 1000 is too low for these nests
    with _recursion_limit(3000):
        assert a == b and hash(a) == hash(b)
        text = repr(a)
        assert text == repr(b) and text.count("(") == text.count(")")


def test_random_records_round_trip_through_their_fields():
    rng = random.Random(7)
    for _ in range(50):
        elems = tuple(sorted(rng.sample(range(3, 40), rng.randrange(6))))
        s = FinSet(elems)
        assert s == FinSet(s.elements) and hash(s) == hash((s.elements,))
        addr = BlockAddress(tuple(rng.randrange(4) for _ in range(3)), rng.randrange(4))
        assert hash(addr) == hash((addr.path, addr.level))
