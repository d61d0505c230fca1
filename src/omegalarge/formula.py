"""Bounded-arithmetic formulas: parsing, evaluation, and sentence plumbing.

The language has exact natural arithmetic (+, *, ^numeral), comparisons,
membership in a single second-order parameter A, boolean connectives and
bounded quantifiers only.  Evaluation on a finite environment always
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TConst:
    value: int


@dataclass(frozen=True)
class TConstA:
    """The distinguished first-order constant `a`."""


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TAdd:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TMul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TPow:
    base: "Term"
    exponent: int  # exponentiation by a numeral only


Term = TConst | TConstA | TVar | TAdd | TMul | TPow


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


@dataclass(frozen=True)
class FCmp:
    op: str  # '<' | '=' | '<='
    left: Term
    right: Term


@dataclass(frozen=True)
class FIn:
    """Membership of a term's value in the second-order parameter A."""

    term: Term


@dataclass(frozen=True)
class FNot:
    body: "Formula"


@dataclass(frozen=True)
class FAnd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class FOr:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class FImp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class FQuant:
    kind: str  # 'forall' | 'exists'
    var: str
    bound: Term  # quantified variable ranges over 0 <= v < bound
    body: "Formula"


Formula = FTrue | FFalse | FCmp | FIn | FNot | FAnd | FOr | FImp | FQuant

TRUE = FTrue()
FALSE = FFalse()


def term_vars(t: Term) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, (TAdd, TMul)):
        return term_vars(t.left) | term_vars(t.right)
    if isinstance(t, TPow):
        return term_vars(t.base)
    return set()


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, (FTrue, FFalse)):
        return set()
    if isinstance(phi, FCmp):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, FIn):
        return term_vars(phi.term)
    if isinstance(phi, FNot):
        return free_vars(phi.body)
    if isinstance(phi, (FAnd, FOr, FImp)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, FQuant):
        return term_vars(phi.bound) | (free_vars(phi.body) - {phi.var})
    raise TypeError(phi)


def subst_term(t: Term, mapping: dict[str, str]) -> Term:
    if isinstance(t, TVar) and t.name in mapping:
        return TVar(mapping[t.name])
    if isinstance(t, TAdd):
        return TAdd(subst_term(t.left, mapping), subst_term(t.right, mapping))
    if isinstance(t, TMul):
        return TMul(subst_term(t.left, mapping), subst_term(t.right, mapping))
    if isinstance(t, TPow):
        return TPow(subst_term(t.base, mapping), t.exponent)
    return t


def rename_free(phi: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables; binders shadow as usual."""
    if isinstance(phi, (FTrue, FFalse)):
        return phi
    if isinstance(phi, FCmp):
        return FCmp(phi.op, subst_term(phi.left, mapping), subst_term(phi.right, mapping))
    if isinstance(phi, FIn):
        return FIn(subst_term(phi.term, mapping))
    if isinstance(phi, FNot):
        return FNot(rename_free(phi.body, mapping))
    if isinstance(phi, FAnd):
        return FAnd(rename_free(phi.left, mapping), rename_free(phi.right, mapping))
    if isinstance(phi, FOr):
        return FOr(rename_free(phi.left, mapping), rename_free(phi.right, mapping))
    if isinstance(phi, FImp):
        return FImp(rename_free(phi.left, mapping), rename_free(phi.right, mapping))
    if isinstance(phi, FQuant):
        inner = {k: v for k, v in mapping.items() if k != phi.var}
        return FQuant(phi.kind, phi.var, subst_term(phi.bound, mapping), rename_free(phi.body, inner))
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

KEYWORDS = {"forall", "exists", "and", "or", "not", "in", "true", "false"}


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class _Token:
    kind: str  # 'num' | 'ident' | 'sym' | 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        elif text.startswith("->", i):
            tokens.append(_Token("sym", "->", i))
            i += 2
        elif text.startswith("<=", i):
            tokens.append(_Token("sym", "<=", i))
            i += 2
        elif c in "<=+*^().":
            tokens.append(_Token("sym", c, i))
            i += 1
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent: -> (right assoc) < or < and < not < atom."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def fail(self, msg: str) -> None:
        raise FormulaSyntaxError(msg, self.peek().pos)

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return FImp(left, self.parse_formula())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek().text == "or":
            self.next()
            left = FOr(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.peek().text == "and":
            self.next()
            left = FAnd(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "not":
            self.next()
            return FNot(self.parse_unary())
        if tok.text in ("forall", "exists"):
            self.next()
            var = self.next()
            if var.kind != "ident" or var.text in KEYWORDS or var.text in ("a", "A"):
                raise FormulaSyntaxError("expected a quantified variable name", var.pos)
            if self.peek().text != "<":
                raise FormulaSyntaxError(
                    "quantifier must carry an explicit bound: "
                    f"{tok.text} {var.text} < term . formula",
                    self.peek().pos,
                )
            self.next()
            bound = self.parse_term()
            self.expect(".")
            return FQuant(tok.text, var.text, bound, self.parse_formula())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return TRUE
        if tok.text == "false":
            self.next()
            return FALSE
        if tok.text == "(":
            # may be a parenthesized formula or a parenthesized term in a
            # comparison; try formula first, fall back on term
            save = self.i
            try:
                self.next()
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except FormulaSyntaxError:
                self.i = save
        left = self.parse_term()
        tok = self.next()
        if tok.text in ("<", "=", "<="):
            return FCmp(tok.text, left, self.parse_term())
        if tok.text == "in":
            name = self.next()
            if name.text != "A":
                raise FormulaSyntaxError(
                    f"unknown set parameter {name.text!r}; only A is available", name.pos
                )
            return FIn(left)
        raise FormulaSyntaxError(f"expected comparison or 'in', found {tok.text!r}", tok.pos)

    def parse_term(self) -> Term:
        left = self.parse_factor()
        while self.peek().text == "+":
            self.next()
            left = TAdd(left, self.parse_factor())
        return left

    def parse_factor(self) -> Term:
        left = self.parse_power()
        while self.peek().text == "*":
            self.next()
            left = TMul(left, self.parse_power())
        return left

    def parse_power(self) -> Term:
        base = self.parse_primary()
        if self.peek().text == "^":
            self.next()
            exp = self.next()
            if exp.kind != "num":
                raise FormulaSyntaxError("exponent must be a numeral", exp.pos)
            return TPow(base, int(exp.text))
        return base

    def parse_primary(self) -> Term:
        tok = self.next()
        if tok.kind == "num":
            return TConst(int(tok.text))
        if tok.text == "(":
            inner = self.parse_term()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text == "a":
                return TConstA()
            if tok.text == "A" or tok.text in KEYWORDS:
                raise FormulaSyntaxError(f"unexpected identifier {tok.text!r} in term", tok.pos)
            return TVar(tok.text)
        raise FormulaSyntaxError(f"expected a term, found {tok.text!r}", tok.pos)


def parse(text: str) -> Formula:
    """Parse a formula; print(parse(t)) reparses to an equal AST."""
    parser = _Parser(text)
    phi = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return phi


def term_text(t: Term) -> str:
    if isinstance(t, TConst):
        return str(t.value)
    if isinstance(t, TConstA):
        return "a"
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TAdd):
        # the parser is left-associative, so right-nested sums need parens
        right = term_text(t.right)
        if isinstance(t.right, TAdd):
            right = f"({right})"
        return f"{term_text(t.left)} + {right}"
    if isinstance(t, TMul):
        left = _factor_text(t.left)
        right = term_text(t.right)
        if isinstance(t.right, (TAdd, TMul)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(t, TPow):
        return f"{_primary_text(t.base)} ^ {t.exponent}"
    raise TypeError(t)


def _factor_text(t: Term) -> str:
    return f"({term_text(t)})" if isinstance(t, TAdd) else term_text(t)


def _primary_text(t: Term) -> str:
    return f"({term_text(t)})" if isinstance(t, (TAdd, TMul, TPow)) else term_text(t)


def formula_text(phi: Formula) -> str:
    if isinstance(phi, FTrue):
        return "true"
    if isinstance(phi, FFalse):
        return "false"
    if isinstance(phi, FCmp):
        return f"{term_text(phi.left)} {phi.op} {term_text(phi.right)}"
    if isinstance(phi, FIn):
        return f"{term_text(phi.term)} in A"
    if isinstance(phi, FNot):
        return f"not {_unary_text(phi.body)}"
    if isinstance(phi, FAnd):
        return f"{_and_text(phi.left)} and {_unary_text(phi.right)}"
    if isinstance(phi, FOr):
        return f"{_or_text(phi.left)} or {_and_text(phi.right)}"
    if isinstance(phi, FImp):
        return f"{_or_text(phi.left)} -> {formula_text(phi.right)}"
    if isinstance(phi, FQuant):
        return f"{phi.kind} {phi.var} < {term_text(phi.bound)} . {formula_text(phi.body)}"
    raise TypeError(phi)


def _unary_text(phi: Formula) -> str:
    if isinstance(phi, (FAnd, FOr, FImp, FQuant)):
        return f"({formula_text(phi)})"
    return formula_text(phi)


def _and_text(phi: Formula) -> str:
    if isinstance(phi, (FOr, FImp, FQuant)):
        return f"({formula_text(phi)})"
    return formula_text(phi)


def _or_text(phi: Formula) -> str:
    if isinstance(phi, (FImp, FQuant)):
        return f"({formula_text(phi)})"
    return formula_text(phi)


# ---------------------------------------------------------------------------
# Second-order parameter and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderParam:
    """A finite initial segment of a set of naturals, coded as a bit string.

    Position i is a member iff bits[i] == '1'; positions at or beyond the
    coded length read as non-members, keeping evaluation total.
    """

    bits: str = ""

    def __post_init__(self) -> None:
        if self.bits.count("0") + self.bits.count("1") != len(self.bits):
            raise ValueError("bits must be a string over 0/1")

    @property
    def length(self) -> int:
        return len(self.bits)

    def member(self, i: int) -> bool:
        return 0 <= i < len(self.bits) and self.bits[i] == "1"

    @classmethod
    def from_positions(cls, positions, length: int) -> "SecondOrderParam":
        marks = set(positions)
        return cls("".join("1" if i in marks else "0" for i in range(length)))


EMPTY_PARAM = SecondOrderParam("")


class UncoveredVariable(ValueError):
    pass


def eval_term(t: Term, env: dict[str, int], a: int) -> int:
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TConstA):
        return a
    if isinstance(t, TVar):
        if t.name not in env:
            raise UncoveredVariable(f"variable {t.name!r} not covered by the environment")
        return env[t.name]
    if isinstance(t, TAdd):
        return eval_term(t.left, env, a) + eval_term(t.right, env, a)
    if isinstance(t, TMul):
        return eval_term(t.left, env, a) * eval_term(t.right, env, a)
    if isinstance(t, TPow):
        return eval_term(t.base, env, a) ** t.exponent
    raise TypeError(t)


def evaluate(
    phi: Formula,
    env: dict[str, int] | None = None,
    a: int = 0,
    param: SecondOrderParam = EMPTY_PARAM,
    on_beyond_length: Optional[Callable[[int], None]] = None,
) -> bool:
    """Standard semantics; bounded quantifiers enumerate 0 <= v < bound.

    `on_beyond_length` is called with the queried position whenever a
    membership atom reads past the coded length of A (which yields false).
    """
    env = dict(env) if env else {}

    def go(phi: Formula) -> bool:
        if isinstance(phi, FTrue):
            return True
        if isinstance(phi, FFalse):
            return False
        if isinstance(phi, FCmp):
            l = eval_term(phi.left, env, a)
            r = eval_term(phi.right, env, a)
            return l < r if phi.op == "<" else l == r if phi.op == "=" else l <= r
        if isinstance(phi, FIn):
            v = eval_term(phi.term, env, a)
            if v >= param.length and on_beyond_length is not None:
                on_beyond_length(v)
            return param.member(v)
        if isinstance(phi, FNot):
            return not go(phi.body)
        if isinstance(phi, FAnd):
            return go(phi.left) and go(phi.right)
        if isinstance(phi, FOr):
            return go(phi.left) or go(phi.right)
        if isinstance(phi, FImp):
            return (not go(phi.left)) or go(phi.right)
        if isinstance(phi, FQuant):
            bound = eval_term(phi.bound, env, a)
            shadow = env.get(phi.var)
            try:
                if phi.kind == "forall":
                    for v in range(bound):
                        env[phi.var] = v
                        if not go(phi.body):
                            return False
                    return True
                for v in range(bound):
                    env[phi.var] = v
                    if go(phi.body):
                        return True
                return False
            finally:
                if shadow is None:
                    env.pop(phi.var, None)
                else:
                    env[phi.var] = shadow
        raise TypeError(phi)

    missing = free_vars(phi) - set(env)
    if missing:
        raise UncoveredVariable(f"variables {sorted(missing)} not covered by the environment")
    return go(phi)


def compile_formula(phi: Formula, variables: list[str], a: int, param: SecondOrderParam):
    """Compile to a closure over a slot list; hot-path equivalent of evaluate.

    The returned function takes one positional int per name in `variables`.
    """
    slots = {name: i for i, name in enumerate(variables)}
    depth = [len(variables)]
    member = param.member

    def comp_term(t: Term, slots: dict[str, int]):
        if isinstance(t, TConst):
            v = t.value
            return lambda env: v
        if isinstance(t, TConstA):
            return lambda env: a
        if isinstance(t, TVar):
            if t.name not in slots:
                raise UncoveredVariable(f"variable {t.name!r} not covered")
            i = slots[t.name]
            return lambda env: env[i]
        if isinstance(t, TAdd):
            l, r = comp_term(t.left, slots), comp_term(t.right, slots)
            return lambda env: l(env) + r(env)
        if isinstance(t, TMul):
            l, r = comp_term(t.left, slots), comp_term(t.right, slots)
            return lambda env: l(env) * r(env)
        if isinstance(t, TPow):
            b, e = comp_term(t.base, slots), t.exponent
            return lambda env: b(env) ** e
        raise TypeError(t)

    def comp(phi: Formula, slots: dict[str, int]):
        if isinstance(phi, FTrue):
            return lambda env: True
        if isinstance(phi, FFalse):
            return lambda env: False
        if isinstance(phi, FCmp):
            l, r = comp_term(phi.left, slots), comp_term(phi.right, slots)
            if phi.op == "<":
                return lambda env: l(env) < r(env)
            if phi.op == "=":
                return lambda env: l(env) == r(env)
            return lambda env: l(env) <= r(env)
        if isinstance(phi, FIn):
            t = comp_term(phi.term, slots)
            return lambda env: member(t(env))
        if isinstance(phi, FNot):
            b = comp(phi.body, slots)
            return lambda env: not b(env)
        if isinstance(phi, FAnd):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: l(env) and r(env)
        if isinstance(phi, FOr):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: l(env) or r(env)
        if isinstance(phi, FImp):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: (not l(env)) or r(env)
        if isinstance(phi, FQuant):
            inner = dict(slots)
            slot = depth[0]
            inner[phi.var] = slot
            depth[0] += 1
            bound = comp_term(phi.bound, slots)
            body = comp(phi.body, inner)
            if phi.kind == "forall":
                def run_all(env, bound=bound, body=body, slot=slot):
                    b = bound(env)
                    for v in range(b):
                        env[slot] = v
                        if not body(env):
                            return False
                    return True
                return run_all

            def run_any(env, bound=bound, body=body, slot=slot):
                b = bound(env)
                for v in range(b):
                    env[slot] = v
                    if body(env):
                        return True
                return False
            return run_any
        raise TypeError(phi)

    # pre-size the slot list: free slots + one per quantifier in the tree
    def count_quants(phi: Formula) -> int:
        if isinstance(phi, FQuant):
            return 1 + count_quants(phi.body)
        if isinstance(phi, FNot):
            return count_quants(phi.body)
        if isinstance(phi, (FAnd, FOr, FImp)):
            return count_quants(phi.left) + count_quants(phi.right)
        return 0

    size = len(variables) + count_quants(phi)
    fn = comp(phi, slots)

    def call(*values: int) -> bool:
        env = [0] * size
        for i, v in enumerate(values):
            env[i] = v
        return fn(env)

    return call


# ---------------------------------------------------------------------------
# Pi03 sentences (the apartness parameter T)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pi03Sentence:
    """A sentence forall x exists y forall z theta(x, y, z), with parameters.

    theta may mention the constant `a` and the set parameter A; its free
    variables must be among {x, y, z} (TOP has none at all).
    """

    theta: Formula
    param_a: int = 0
    param_A: SecondOrderParam = EMPTY_PARAM
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        extra = free_vars(self.theta) - {"x", "y", "z"}
        if extra:
            raise ValueError(f"theta has stray free variables {sorted(extra)}")

    @property
    def is_top(self) -> bool:
        return isinstance(self.theta, FTrue)

    def floor(self) -> int:
        """Least admissible minimum for sets used with this sentence."""
        return max(3, self.param_a)

    def theta_at(self, x: int, y: int, z: int) -> bool:
        fn = self._cache.get("fn")
        if fn is None:
            fn = compile_formula(self.theta, ["x", "y", "z"], self.param_a, self.param_A)
            self._cache["fn"] = fn
        return fn(x, y, z)

    def holds_bounded(self, x_bound: int, y_bound: int, z_bound: int) -> bool:
        """forall x < x_bound exists y < y_bound forall z < z_bound theta.

        Layered memoization keeps repeated block-apartness queries cheap.
        """
        if self.is_top:
            return True
        all_z = self._cache.setdefault("all_z", {})
        some_y = self._cache.setdefault("some_y", {})

        def forall_z(x: int, y: int, c: int) -> bool:
            key = (x, y, c)
            hit = all_z.get(key)
            if hit is None:
                hit = all(self.theta_at(x, y, z) for z in range(c))
                all_z[key] = hit
            return hit

        def exists_y(x: int, b: int, c: int) -> bool:
            key = (x, b, c)
            hit = some_y.get(key)
            if hit is None:
                hit = any(forall_z(x, y, c) for y in range(b))
                some_y[key] = hit
            return hit

        return all(exists_y(x, y_bound, z_bound) for x in range(x_bound))

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "theta": formula_text(self.theta),
                "a": str(self.param_a),
                "A": self.param_A.bits,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Pi03Sentence":
        import json

        obj = json.loads(text)
        return cls(parse(obj["theta"]), int(obj.get("a", "0")), SecondOrderParam(obj.get("A", "")))


TOP = Pi03Sentence(TRUE)


# ---------------------------------------------------------------------------
# RT-like statements
# ---------------------------------------------------------------------------

HOMOGENEOUS = "homogeneous"
TRANSITIVE = "transitive"
MONOTONE_ASCENDING = "monotone-ascending"
MONOTONE_DESCENDING = "monotone-descending"
PSI_TRUE = "true"

BUILTIN_PSI0 = (HOMOGENEOUS, TRANSITIVE, MONOTONE_ASCENDING, MONOTONE_DESCENDING, PSI_TRUE)

# builtins are hereditary: holding on the full table implies holding on
# every restriction, so solution checks need only look at the whole set
_HEREDITARY = set(BUILTIN_PSI0)


def _psi0_builtin(name: str, table) -> bool:
    from .sets import ColoringTable, is_transitive

    assert isinstance(table, ColoringTable)
    if name == PSI_TRUE:
        return True
    if name == HOMOGENEOUS:
        return len(set(table.table)) <= 1
    # the remaining builtins read pairs
    if table.arity != 2:
        raise ValueError(f"{name} applies to arity-2 colorings only")
    if name == MONOTONE_ASCENDING:
        return all(c == 1 for c in table.table)
    if name == MONOTONE_DESCENDING:
        return all(c == 0 for c in table.table)
    if name == TRANSITIVE:
        return is_transitive(table, table.domain.elements)
    raise ValueError(f"unknown builtin {name!r}")


@dataclass(frozen=True)
class RtLikeStatement:
    """Arity, color count, and the per-restriction predicate psi0.

    psi0 is either a builtin name or a formula over the coded table: the
    restricted table's colors are listed in lexicographic tuple order in A
    (two colors only), and the restricted domain size is passed as the
    constant a.
    """

    arity: int
    colors: int
    psi0: str | Formula

    def __post_init__(self) -> None:
        if isinstance(self.psi0, str) and self.psi0 not in BUILTIN_PSI0:
            raise ValueError(f"unknown builtin psi0 {self.psi0!r}")
        if not isinstance(self.psi0, str):
            if self.colors != 2:
                raise ValueError("formula psi0 supports two colors only (bit-coded table)")
            stray = free_vars(self.psi0)
            if stray:
                raise ValueError(
                    f"psi0 formula has free variables {sorted(stray)}; it may only "
                    "read the coded table via A and the domain size via a"
                )

    def psi0_holds(self, table) -> bool:
        """Evaluate psi0 on an already reindexed table."""
        if isinstance(self.psi0, str):
            return _psi0_builtin(self.psi0, table)
        bits = "".join(str(c) for c in table.table)
        return evaluate(self.psi0, {}, a=len(table.domain), param=SecondOrderParam(bits))

    def solution_ok(self, f, y, ceiling: int = 1 << 16) -> bool:
        """Check psi0 on f restricted to every finite subset of y.

        Builtins are hereditary, so the full restriction suffices; formula
        psi0 requires enumerating subsets (guarded by `ceiling`).
        """
        from itertools import combinations

        from .sets import restrict_coloring

        if isinstance(self.psi0, str):
            return self.psi0_holds(restrict_coloring(f, y))
        if 2 ** len(y) > ceiling:
            raise ValueError(f"subset enumeration over {len(y)} elements exceeds ceiling")
        for size in range(len(y) + 1):
            for sub in combinations(y.elements, size):
                if not self.psi0_holds(restrict_coloring(f, y.restrict(sub))):
                    return False
        return True


RT22 = RtLikeStatement(2, 2, HOMOGENEOUS)
RT1 = lambda k: RtLikeStatement(1, k, HOMOGENEOUS)  # noqa: E731
EM_STATEMENT = RtLikeStatement(2, 2, TRANSITIVE)


# ---------------------------------------------------------------------------
# Quantifier-prefix descriptions and the weakening transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantStep:
    kind: str  # 'forall' | 'exists'
    var: str
    bound: str | None = None  # name of an earlier variable, or None for unbounded


@dataclass(frozen=True)
class PrefixedSentence:
    """Quantifier prefix over a bounded core, after the implicit set and
    first-order parameter quantifiers."""

    prefix: tuple[QuantStep, ...]
    matrix: Formula

    def text(self) -> str:
        parts = []
        for q in self.prefix:
            sym = "forall" if q.kind == "forall" else "exists"
            parts.append(f"{sym} {q.var}" + (f" < {q.bound}" if q.bound else ""))
        return " ".join(parts) + " . " + formula_text(self.matrix)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "prefix": [[q.kind, q.var, q.bound] for q in self.prefix],
                "matrix": formula_text(self.matrix),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PrefixedSentence":
        import json

        obj = json.loads(text)
        prefix = tuple(QuantStep(k, v, b) for k, v, b in obj["prefix"])
        return cls(prefix, parse(obj["matrix"]))


class PrefixShapeError(ValueError):
    pass


def weakly_pi04_transform(sentence: PrefixedSentence) -> PrefixedSentence:
    """Turn exists x forall y exists z theta into the weakened form
    exists x forall y exists x' < x forall y' < y exists z theta(x', y', z).

    Purely syntactic; the input must be exactly in the three-quantifier
    shape (so the transform cannot be applied twice).
    """
    shape = tuple((q.kind, q.bound is None) for q in sentence.prefix)
    if shape != (("exists", True), ("forall", True), ("exists", True)):
        raise PrefixShapeError(
            "input must have prefix exists x forall y exists z with no bounds"
        )
    x, y, z = (q.var for q in sentence.prefix)
    used = free_vars(sentence.matrix) | {x, y, z}
    xp = _fresh(x + "'", used)
    yp = _fresh(y + "'", used | {xp})
    matrix = rename_free(sentence.matrix, {x: xp, y: yp})
    prefix = (
        QuantStep("exists", x),
        QuantStep("forall", y),
        QuantStep("exists", xp, bound=x),
        QuantStep("forall", yp, bound=y),
        QuantStep("exists", z),
    )
    return PrefixedSentence(prefix, matrix)


def _fresh(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "'"
    return name
