"""Bounded-arithmetic formulas: parsing, evaluation, and sentence plumbing.

The language has exact natural arithmetic (+, *, ^numeral), comparisons,
membership in a single second-order parameter A, boolean connectives and
bounded quantifiers only.  Evaluation on a finite environment always
terminates.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from functools import reduce
from itertools import combinations
from types import FunctionType
from typing import Callable

from .record import FrozenRecord, Record
from .sets import is_transitive, json_int, json_typed

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class TConst(FrozenRecord):
    value: int


class TConstA(FrozenRecord):
    """The distinguished first-order constant `a`."""


class TVar(FrozenRecord):
    name: str


class TAdd(FrozenRecord):
    left: "Term"
    right: "Term"


class TMul(FrozenRecord):
    left: "Term"
    right: "Term"


class TPow(FrozenRecord):
    base: "Term"
    exponent: int  # exponentiation by a numeral only


Term = TConst | TConstA | TVar | TAdd | TMul | TPow


class FTrue(FrozenRecord):
    pass


class FFalse(FrozenRecord):
    pass


class FCmp(FrozenRecord):
    op: str  # '<' | '=' | '<='
    left: Term
    right: Term


class FIn(FrozenRecord):
    """Membership of a term's value in the second-order parameter A."""

    term: Term


class FNot(FrozenRecord):
    body: "Formula"


class FAnd(FrozenRecord):
    left: "Formula"
    right: "Formula"


class FOr(FrozenRecord):
    left: "Formula"
    right: "Formula"


class FImp(FrozenRecord):
    left: "Formula"
    right: "Formula"


class FQuant(FrozenRecord):
    kind: str  # 'forall' | 'exists'
    var: str
    bound: Term  # quantified variable ranges over 0 <= v < bound
    body: "Formula"


Formula = FTrue | FFalse | FCmp | FIn | FNot | FAnd | FOr | FImp | FQuant

TRUE = FTrue()
FALSE = FFalse()


def free_vars(phi: Formula) -> set[str]:
    return _variables(phi, free=True)


def _scoped(phi: Formula):
    """(node, the variables bound above it) for every node of phi, each
    after its operands, which come left to right.  An `FQuant`'s body is
    inside its binder's scope, its bound is outside.  The walk keeps its own
    stack, so a flat chain of any length is read, as the parser reads it."""
    stack = [(phi, frozenset(), False)]
    while stack:
        node, bound, expanded = stack.pop()
        if expanded:
            yield node, bound
            continue
        stack.append((node, bound, True))
        inner = bound | {node.var} if isinstance(node, FQuant) else bound
        for field in reversed(node._fields):
            value = getattr(node, field)
            if isinstance(value, FrozenRecord):
                stack.append((value, inner if field == "body" else bound, False))


def _variables(phi: Formula, free: bool) -> set[str]:
    """The variables phi names: its free ones, or with `free` off every one,
    binders included."""
    out: set[str] = set()
    for node, bound in _scoped(phi):
        if isinstance(node, TVar) and not (free and node.name in bound):
            out.add(node.name)
        elif isinstance(node, FQuant) and not free:
            out.add(node.var)
    return out


def rename_free(phi: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables; binders shadow as usual.  The walk gives each
    node right after its renamed operands, and the node is rebuilt from them."""
    done: list = []  # renamed operands, not yet read by their parent
    for node, bound in _scoped(phi):
        if isinstance(node, TVar):
            done.append(node if node.name in bound else TVar(mapping.get(node.name, node.name)))
        else:
            values = [done.pop() if isinstance(v, FrozenRecord) else v for v in reversed(node._values(node))]
            done.append(type(node)(*reversed(values)))
    return done.pop()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

KEYWORDS = {"forall", "exists", "and", "or", "not", "in", "true", "false"}

# one token after any white space that str.isspace accepts in ASCII: a
# numeral, a name or a symbol, else any other character, which is an error
_TOKEN = re.compile(
    r"[\t-\r\x1c-\x20]*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>->|<=|[<=+*^().])|(?P<bad>[^\t-\r\x1c-\x20]))"
)


def _is_variable_name(name) -> bool:
    """Is name one identifier that a quantifier may bind: one name token,
    and neither a keyword nor `a`/`A`?"""
    match = isinstance(name, str) and _TOKEN.fullmatch(name)
    return bool(match) and match["ident"] == name and name not in KEYWORDS and name not in ("a", "A")


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token(Record):
    kind: str  # 'num' | 'ident' | 'sym' | 'eof'
    text: str
    pos: int

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append(_Token(kind, match[kind], match.start(kind)))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar levels of the printer's table."""

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

    def parse_binary(self, level: int) -> Formula | Term:
        """A chain of the binary operator at `level`, read in one loop and
        grouped as the operator groups: the parser recurses once per binding
        level, never once per chain link."""
        op, kind, groups_right = _BINARY[level]
        below, parts = level + 1, []  # the operands before the last one
        while True:  # `and` chains `not` levels, `*` chains powers
            node = (self.parse_binary(below) if below in _BINARY
                    else self.parse_unary() if below == _NOT_LEVEL else self.parse_power())
            if self.tokens[self.i].text != op:
                break
            parts.append(node)
            self.i += 1
        if not parts:
            return node
        if groups_right:
            return reduce(lambda right, left: kind(left, right), reversed(parts), node)
        return kind(reduce(kind, parts), node)

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "not":
            self.next()
            return FNot(self.parse_unary())
        if tok.text in ("forall", "exists"):
            self.next()
            var = self.next()
            if var.kind != "ident" or not _is_variable_name(var.text):
                raise FormulaSyntaxError("expected a quantified variable name", var.pos)
            if self.peek().text != "<":
                raise FormulaSyntaxError(
                    "quantifier must carry an explicit bound: "
                    f"{tok.text} {var.text} < term . formula",
                    self.peek().pos,
                )
            self.next()
            bound = self.parse_binary(_TERM_LEVEL)
            self.expect(".")
            return FQuant(tok.text, var.text, bound, self.parse_binary(0))
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
                inner = self.parse_binary(0)
                self.expect(")")
                return inner
            except FormulaSyntaxError:
                self.i = save
        left = self.parse_binary(_TERM_LEVEL)
        tok = self.next()
        if tok.text in ("<", "=", "<="):
            return FCmp(tok.text, left, self.parse_binary(_TERM_LEVEL))
        if tok.text == "in":
            name = self.next()
            if name.text != "A":
                raise FormulaSyntaxError(
                    f"unknown set parameter {name.text!r}; only A is available", name.pos
                )
            return FIn(left)
        raise FormulaSyntaxError(f"expected comparison or 'in', found {tok.text!r}", tok.pos)

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
            inner = self.parse_binary(_TERM_LEVEL)
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
    phi = parser.parse_binary(0)
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return phi


# The grammar levels, loosest first.  A quantifier's body reaches as far
# right as the right side of `->`, so a quantifier sits at that level.
_LEVELS = ("->", "or", "and", "not", "+", "*", "^", "atom")
_NOT_LEVEL, _TERM_LEVEL = _LEVELS.index("not"), _LEVELS.index("+")

# node type -> its level and its text; `{field:level}` is an operand that
# gets parentheses where it binds looser than the level, `{field}` a name
# or a number
_LAYOUT = {
    FImp: ("->", "{left:or} -> {right:->}"),
    FQuant: ("->", "{kind} {var} < {bound:+} . {body:->}"),
    FOr: ("or", "{left:or} or {right:and}"),
    FAnd: ("and", "{left:and} and {right:not}"),
    FNot: ("not", "not {body:not}"),
    TAdd: ("+", "{left:+} + {right:*}"),
    TMul: ("*", "{left:*} * {right:^}"),
    TPow: ("^", "{base:atom} ^ {exponent}"),
    FCmp: ("atom", "{left:+} {op} {right:+}"),
    FIn: ("atom", "{term:+} in A"),
    FTrue: ("atom", "true"),
    FFalse: ("atom", "false"),
    TConst: ("atom", "{value}"),
    TConstA: ("atom", "a"),
    TVar: ("atom", "{name}"),
}

def _pieces(layout: str) -> list[tuple[str, str | None, int | None]]:
    """The pieces of a layout, in order: (text, field or None, the field's
    level or None), a field with the text before it."""
    out = []
    while "{" in layout:
        text, _, rest = layout.partition("{")
        field, _, layout = rest.partition("}")
        name, _, spec = field.partition(":")
        out.append((text, name, _LEVELS.index(spec) if spec else None))
    return out + [(layout, None, None)] if layout else out


# node type -> its level and its pieces
_PIECES = {kind: (_LEVELS.index(level), _pieces(layout)) for kind, (level, layout) in _LAYOUT.items()}

# level -> the binary operator there: its text, its node type, and whether
# a chain of it groups to the right.  The binary operators are the nodes of
# the fields left and right only; one groups to the right where its right
# operand, not its left, may bind at its own level.
_BINARY = {
    level: (pieces[1][0].strip(), kind, pieces[1][2] == level)
    for kind, (level, pieces) in _PIECES.items()
    if kind._fields == ("left", "right")
}


def formula_text(phi: Formula | Term) -> str:
    """The text of a formula or a term, which `parse` reads back to an equal
    one.  The printer keeps its own stack, so a flat chain of any length
    prints, as the parser reads it."""
    out, stack = [], [(phi, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, need = item
        level, pieces = _PIECES[type(node)]
        if level < need:
            out.append("(")
            stack.append(")")
        for text, field, spec in reversed(pieces):
            if field is not None:
                value = getattr(node, field)
                stack.append(str(value) if spec is None else (value, spec))
            stack.append(text)
    return "".join(out)


# ---------------------------------------------------------------------------
# Second-order parameter and evaluation
# ---------------------------------------------------------------------------


class SecondOrderParam(FrozenRecord):
    """A finite initial segment of a set of naturals, coded as a bit string.

    Position i is a member iff bits[i] == '1'; positions at or beyond the
    coded length read as non-members, keeping evaluation total.
    """

    bits: str = ""

    def __post_init__(self) -> None:
        # one pass: an ASCII string is over 0/1 iff deleting both leaves nothing
        if not self.bits.isascii() or self.bits.encode().translate(None, b"01"):
            raise ValueError("bits must be a string over 0/1")

    @property
    def length(self) -> int:
        return len(self.bits)

    def member(self, i: int) -> bool:
        return 0 <= i < len(self.bits) and self.bits[i] == "1"


EMPTY_PARAM = SecondOrderParam("")


class UncoveredVariable(ValueError):
    pass


def evaluate(
    phi: Formula,
    env: dict[str, int] | None = None,
    a: int = 0,
    param: SecondOrderParam = EMPTY_PARAM,
) -> bool:
    """Standard semantics; bounded quantifiers enumerate 0 <= v < bound.

    Compiles phi over the names of env and calls the result once.
    """
    env = env or {}
    for name, value in env.items():
        if value < 0:
            raise ValueError(f"{name} = {value} is not a natural number")
    return compile_formula(phi, list(env))(a, param.member)(*env.values())


# CPython refuses an expression nested more than 200 parentheses deep; a
# subexpression nested deeper than this goes into a helper function.
_MAX_NESTING = 50

# binding strength of the generated Python, loosest first
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _NEG, _POW, _ATOM = range(9)

# node type -> (the node types its chain flattens, operator, strength)
_CHAINS = {
    TAdd: (TAdd, " + ", _ADD),
    TMul: (TMul, " * ", _MUL),
    FAnd: (FAnd, " and ", _AND),
    FOr: ((FOr, FImp), " or ", _OR),
    FImp: ((FOr, FImp), " or ", _OR),
}


def _operands(node, kinds) -> list:
    """Operands of the maximal subtree of `kinds` nodes at `node`, left to
    right; an implication p -> q in an `or` chain gives not p, then q."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            stack += (node.right, FNot(node.left) if isinstance(node, FImp) else node.left)
        else:
            out.append(node)
    return out


class _ThetaSource:
    """Python source of a formula over generated names only: p<i> for the
    free variables, v<i> for bound ones, h<i> for helper functions.

    Same-operator chains come out flat and `not` unparenthesized wherever
    Python's precedence allows, and the emitter recurses once per AST level
    elsewhere, so only nesting, never a chain's length, meets the
    interpreter's recursion limit.
    """

    def __init__(self) -> None:
        self.helpers: list[str] = []
        self.bound = 0

    def emit(self, node, scope: dict[str, str], need: int = _OR) -> tuple[str, int]:
        """Source text of `node` binding at least as tight as `need`, and
        its parenthesis depth."""
        depth = 0
        if isinstance(node, TConst):
            text, own = repr(int(node.value)), _ATOM if node.value >= 0 else _NEG
        elif isinstance(node, TConstA):
            text, own = "a", _ATOM
        elif isinstance(node, TVar):
            if node.name not in scope:
                raise UncoveredVariable(f"variable {node.name!r} not covered")
            text, own = scope[node.name], _ATOM
        elif isinstance(node, TPow):
            base, depth = self.emit(node.base, scope, _ATOM)
            text, own = f"{base} ** {int(node.exponent)}", _POW
        elif isinstance(node, (FTrue, FFalse)):
            text, own = repr(isinstance(node, FTrue)), _ATOM
        elif isinstance(node, FCmp):
            left, ld = self.emit(node.left, scope, _ADD)
            right, rd = self.emit(node.right, scope, _ADD)
            op = "==" if node.op == "=" else node.op
            text, own, depth = f"{left} {op} {right}", _CMP, max(ld, rd)
        elif isinstance(node, FIn):
            term, depth = self.emit(node.term, scope)
            (text, depth), own = self.group(term, depth, scope, "member"), _ATOM
        elif isinstance(node, FNot):
            count = 0
            while isinstance(node, FNot):
                node, count = node.body, count + 1
            body, depth = self.emit(node, scope, _NOT)
            text, own = "not " * count + body, _NOT
        elif type(node) in _CHAINS:
            kinds, op, own = _CHAINS[type(node)]
            parts = []
            for part in _operands(node, kinds):
                part_text, part_depth = self.emit(part, scope, own + 1)
                parts.append(part_text)
                depth = max(depth, part_depth)
            text = op.join(parts)
        elif isinstance(node, FQuant):
            bound, bound_depth = self.emit(node.bound, scope)
            var = f"v{self.bound}"
            self.bound += 1
            body, depth = self.emit(node.body, {**scope, node.var: var})
            call = "all" if node.kind == "forall" else "any"
            text = f"{body} for {var} in range({bound})"
            (text, depth), own = self.group(text, max(depth, bound_depth + 1), scope, call), _ATOM
        else:
            raise TypeError(node)
        return self.group(text, depth, scope) if own < need else (text, depth)

    def group(self, text: str, depth: int, scope: dict[str, str], call: str = "") -> tuple[str, int]:
        """`call(text)`; once nesting gets deep, a call of a new helper
        function of every name in scope that returns it."""
        text = f"{call}({text})"
        if depth < _MAX_NESTING:
            return text, depth + 1
        name, args = f"h{len(self.helpers)}", ", ".join(scope.values())
        self.helpers.append(f"def {name}({args}):\n    return {text}\n")
        return f"{name}({args})", 1


def compile_formula(phi: Formula, variables: list[str]) -> Callable[[int, Callable], Callable[..., bool]]:
    """Compile phi to one generated Python function, the evaluator of formulas.

    Returns `bind`: `bind(a, member)` is phi's function for the constant `a`
    and the membership test `member` of A, taking one positional int per
    name in `variables`.  Binding only makes function objects, so a formula
    read against many sets compiles once.  The source mentions generated
    names only, so no variable of phi can shadow `a`, `member` or a builtin.
    """
    source = _ThetaSource()
    scope = {name: f"p{i}" for i, name in enumerate(variables)}
    body = source.emit(phi, scope)[0]
    params = ", ".join(f"p{i}" for i in range(len(variables)))
    text = "".join(source.helpers) + f"def theta({params}):\n    return {body}\n"
    namespace: dict = {}
    exec(compile(text, "<theta>", "exec"), namespace)
    # only the code is kept: popping the functions leaves no reference
    # cycle between them and their namespace for the collector
    names = ["theta", *(f"h{i}" for i in range(len(source.helpers)))]
    codes = [(name, namespace.pop(name).__code__) for name in names]

    def bind(a: int, member: Callable[[int], bool]) -> Callable[..., bool]:
        # `a`, `member` and the helpers are globals of this binding alone;
        # theta never reads itself, so popping it leaves no cycle either
        globs = {"a": a, "member": member}
        for name, code in codes:
            globs[name] = FunctionType(code, globs)
        return globs.pop("theta")

    return bind


# ---------------------------------------------------------------------------
# Pi03 sentences (the apartness parameter T)
# ---------------------------------------------------------------------------


class Pi03Sentence(FrozenRecord):
    """A sentence forall x exists y forall z theta(x, y, z), with parameters.

    theta may mention the constant `a` and the set parameter A; its free
    variables must be among {x, y, z} (TOP has none at all).
    """

    theta: Formula
    param_a: int = 0
    param_A: SecondOrderParam = EMPTY_PARAM
    _cache: dict  # the compiled theta and the apartness memos

    def __post_init__(self) -> None:
        if self.param_a < 0:
            raise ValueError(f"a must be a natural number, not {self.param_a}")
        object.__setattr__(self, "_cache", {})
        extra = free_vars(self.theta) - {"x", "y", "z"}
        if extra:
            raise ValueError(f"theta has stray free variables {sorted(extra)}")
        # compiled here, so a theta too deep to compile fails where it is read;
        # the memos are made here once, so a query only reads them
        self._cache.update(
            fn=compile_formula(self.theta, ["x", "y", "z"])(self.param_a, self.param_A.member),
            z_frontier={}, y_frontier={}, z_seen={},
        )

    @property
    def is_top(self) -> bool:
        return isinstance(self.theta, FTrue)

    def floor(self) -> int:
        """Least admissible minimum for sets used with this sentence."""
        return max(3, self.param_a)

    def theta_at(self, x: int, y: int, z: int) -> bool:
        return self._cache["fn"](x, y, z)

    def holds_bounded(self, x_bound: int, y_bound: int, z_bound: int) -> bool:
        """forall x < x_bound exists y < y_bound forall z < z_bound theta.

        Two frontiers in `_cache` answer repeated block-apartness queries;
        they live as long as this sentence object.  `z_frontier` holds one
        entry per (x, y), O(X·Y) in all: n >= 0 says theta holds for every
        z < n, ~n < 0 says z = n is the first z where it fails.  A query past
        an open frontier extends it, so theta runs at most once per (x, y, z).
        `y_frontier` holds one entry per (x, Z), O(X·Z) in all: ~w < 0 says w
        is the least y with theta(x, y, z) for every z < Z, n >= 0 says no
        y < n is such a witness.  A query reads w < y_bound or resumes the
        scan at n, never at 0.  A witness for Z is one for every Z' < Z, so
        the least witness is nondecreasing in Z, and either kind of entry at
        the nearest smaller Z' seen for x (`z_seen`, sorted) is a lower
        bound that a new (x, Z) entry starts from.
        """
        if self.is_top:
            return True
        cache = self._cache
        z_frontier, y_frontier, z_seen = cache["z_frontier"], cache["y_frontier"], cache["z_seen"]

        def forall_z(x: int, y: int, c: int) -> bool:
            n = z_frontier.get((x, y), 0)
            if n < 0:
                return c <= ~n
            if c <= n:
                return True
            for z in range(n, c):
                if not self.theta_at(x, y, z):
                    z_frontier[x, y] = ~z
                    return False
            z_frontier[x, y] = c
            return True

        def exists_y(x: int, b: int, c: int) -> bool:
            n = y_frontier.get((x, c))
            if n is None:
                seen = z_seen.setdefault(x, [])
                i = bisect_left(seen, c)
                n = y_frontier[x, seen[i - 1]] if i else 0
                if n < 0:
                    n = ~n
                seen.insert(i, c)
            elif n < 0:
                return ~n < b
            for y in range(n, b):
                if forall_z(x, y, c):
                    y_frontier[x, c] = ~y
                    return True
            y_frontier[x, c] = max(n, b)
            return False

        return all(exists_y(x, y_bound, z_bound) for x in range(x_bound))

    def to_json(self) -> str:
        return json.dumps(
            {
                "theta": formula_text(self.theta),
                "a": str(self.param_a),
                "A": self.param_A.bits,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Pi03Sentence":
        """`a` is read as a set-file number; a value of the wrong JSON type
        is a ValueError."""
        obj = json_typed(json.loads(text), dict, "a sentence")
        return cls(
            parse(json_typed(obj["theta"], str, "theta")),
            json_int(obj.get("a", "0"), "a"),
            SecondOrderParam(json_typed(obj.get("A", ""), str, "A")),
        )


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
# the builtins that read pairs
PAIR_PSI0 = (TRANSITIVE, MONOTONE_ASCENDING, MONOTONE_DESCENDING)


class CeilingExceeded(ValueError):
    """An enumeration would pass its ceiling."""


class RtLikeStatement(FrozenRecord):
    """Arity, color count, and the per-restriction predicate psi0.

    psi0 is either a builtin name or a formula over the coded table: the
    restricted table's colors are listed in lexicographic tuple order in A
    (two colors only), and the restricted domain size is passed as the
    constant a.
    """

    arity: int
    colors: int
    psi0: str | Formula
    # a formula psi0, compiled once for every table it reads
    _bind_psi0: Callable | None = None

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("a statement's arity must be non-negative")
        if self.colors < 1:
            raise ValueError("a statement needs at least one color")
        if isinstance(self.psi0, str) and self.psi0 not in BUILTIN_PSI0:
            raise ValueError(f"unknown builtin psi0 {self.psi0!r}")
        if self.psi0 in PAIR_PSI0 and self.arity != 2:
            raise ValueError(f"{self.psi0} applies to arity-2 colorings only")
        if not isinstance(self.psi0, str):
            if self.colors != 2:
                raise ValueError("formula psi0 supports two colors only (bit-coded table)")
            stray = free_vars(self.psi0)
            if stray:
                raise ValueError(
                    f"psi0 formula has free variables {sorted(stray)}; it may only "
                    "read the coded table via A and the domain size via a"
                )
            object.__setattr__(self, "_bind_psi0", compile_formula(self.psi0, []))

    def psi0_holds(self, f, y) -> bool:
        """psi0 of f restricted to y and reindexed to {0, ..., |y|-1},
        read on the tuples of y's elements in place: only y's order type
        reaches psi0.  y is a FinSet or an increasing tuple; a tuple of y
        outside f's domain is a ValueError."""
        elems, k = tuple(y), f.arity
        # with arity 0, or fewer points than the arity, y has no tuple to leave the domain with
        if k and len(elems) >= k and not f.covers(elems):
            raise ValueError(f"restriction target {elems} is not a subset of the coloring domain")
        if not isinstance(self.psi0, str):
            bits = "".join(str(f(*t)) for t in combinations(elems, k))
            return self._bind_psi0(len(elems), SecondOrderParam(bits).member)()
        if self.psi0 == PSI_TRUE:
            return True
        if self.psi0 == TRANSITIVE:
            return is_transitive(f, elems)
        image = f.image(elems)
        if self.psi0 == HOMOGENEOUS:
            return len(image) <= 1
        return image <= {1 if self.psi0 == MONOTONE_ASCENDING else 0}

    def solution_ok(self, f, y) -> bool:
        """Check psi0 on f restricted to every finite subset of y.

        Builtins are hereditary, so y itself suffices; formula psi0
        requires enumerating subsets, at most 2^16 of them.
        """
        if isinstance(self.psi0, str):
            return self.psi0_holds(f, y)
        if len(y) > 16:
            raise CeilingExceeded(f"subset enumeration over {len(y)} elements exceeds ceiling")
        for size in range(len(y) + 1):
            for sub in combinations(y.elements, size):
                if not self.psi0_holds(f, sub):
                    return False
        return True


# ---------------------------------------------------------------------------
# Quantifier-prefix descriptions and the weakening transform
# ---------------------------------------------------------------------------


class QuantStep(FrozenRecord):
    kind: str  # 'forall' | 'exists'
    var: str
    bound: str | None = None  # name of an earlier variable, or None for unbounded


class PrefixedSentence(FrozenRecord):
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
        return json.dumps(
            {
                "prefix": [[q.kind, q.var, q.bound] for q in self.prefix],
                "matrix": formula_text(self.matrix),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PrefixedSentence":
        obj = json_typed(json.loads(text), dict, "a prefixed sentence")
        steps = [json_typed(q, list, "a prefix step") for q in json_typed(obj["prefix"], list, "prefix")]
        if any(len(q) != 3 for q in steps):
            raise ValueError("a prefix step is [kind, variable, bound]")
        for kind, var, _ in steps:
            if kind not in ("forall", "exists"):
                raise ValueError(f"a prefix step's kind must be forall or exists, not {json.dumps(kind)}")
            if not _is_variable_name(var):
                raise ValueError(f"a prefix step's variable must be a variable name, not {json.dumps(var)}")
        return cls(tuple(QuantStep(*q) for q in steps), parse(json_typed(obj["matrix"], str, "matrix")))


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
    if len({x, y, z}) < 3:
        raise PrefixShapeError(f"the prefix binds a variable twice: exists {x} forall {y} exists {z}")
    # fresh names avoid the matrix's bound variables too, or x' would be captured
    used = _variables(sentence.matrix, free=False) | {x, y, z}
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
