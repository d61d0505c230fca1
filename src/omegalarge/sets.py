"""Finite sets of naturals, sparsity policies and coloring tables.

Naturals are plain Python ints (arbitrary precision, exact arithmetic).
Every value here is immutable after construction and safe to share.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from itertools import accumulate, combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .record import FrozenRecord


class SparsityPolicy(enum.Enum):
    """Gap requirement between consecutive elements: threshold(x) < next."""

    EXP4 = "exp4"      # 4^x < y, the faithful notion
    POLY2 = "poly2"    # x*x < y
    LINEAR = "linear"  # 2*x < y
    NONE = "none"      # no constraint

    def threshold(self, x: int) -> int:
        if self is SparsityPolicy.EXP4:
            return 4 ** x
        if self is SparsityPolicy.POLY2:
            return x * x
        if self is SparsityPolicy.LINEAR:
            return 2 * x
        return -1


class FinSet(FrozenRecord):
    """Strictly increasing finite sequence of naturals.  Which minimum a
    sentence can read is the sentence's rule, checked by the procedures
    that take both."""

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]) -> None:
        object.__setattr__(self, "elements", elements)
        self.__post_init__()

    def __post_init__(self) -> None:
        elems = tuple(int(v) for v in self.elements)
        object.__setattr__(self, "elements", elems)
        for a, b in zip(elems, elems[1:]):
            if a >= b:
                raise ValueError(f"elements not strictly increasing at {a}, {b}")
        if elems and elems[0] < 0:
            raise ValueError("negative element")

    @classmethod
    def interval(cls, lo: int, hi: int) -> "FinSet":
        """Closed interval [lo, hi]."""
        return cls(tuple(range(lo, hi + 1)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.elements, v)
        return i < len(self.elements) and self.elements[i] == v

    @property
    def minimum(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no minimum")
        return self.elements[0]

    @property
    def maximum(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no maximum")
        return self.elements[-1]

    # -- text formats: one decimal per line, or a JSON array of integers --

    def to_lines(self) -> str:
        return "\n".join(str(v) for v in self.elements) + "\n"

    def to_json(self) -> str:
        return json.dumps([str(v) for v in self.elements])

    @classmethod
    def parse(cls, text: str, source: str = "<text>") -> "FinSet":
        """Read either text format; JSON entries are integers or decimal
        strings.  Every error is a ValueError whose message starts with
        `source` (with the line number for a bad line)."""
        stripped = text.strip()
        values = []
        if stripped.startswith("["):
            try:
                entries = json.loads(stripped)
            except ValueError as err:
                raise ValueError(f"{source}: bad JSON set: {err}") from err
            for pos, entry in enumerate(entries):
                try:
                    values.append(json_int(entry, ""))
                except ValueError as err:  # the entry's label is built only here
                    raise ValueError(f"{source}: JSON set entry {pos}{err}") from None
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    values.append(int(line))
                except ValueError:
                    raise ValueError(
                        f"{source}:{lineno}: not a decimal numeral: {line!r}"
                    ) from None
        try:
            return cls(tuple(values))
        except ValueError as err:
            raise ValueError(f"{source}: {err}") from err


def json_typed(value, kind: type, what: str):
    """`value` of a parsed JSON document if it is a `kind` (dict, list or
    str); anything else is a ValueError naming `what`."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ValueError(f"{what} is not {name}: {json.dumps(value)[:40]}")
    return value


def json_int(entry, what: str) -> int:
    """A JSON integer or decimal string as an int; anything else,
    including a float or a bool, is a ValueError naming `what`."""
    if isinstance(entry, bool) or not isinstance(entry, (int, str)):
        raise ValueError(f"{what} is not an integer: {json.dumps(entry)}")
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"{what} is not a decimal numeral: {json.dumps(entry)}") from None


def is_sparse(x: FinSet, policy: SparsityPolicy) -> bool:
    """True iff threshold(a) < b for every adjacent pair a < b.

    Adjacent pairs suffice: thresholds are strictly increasing, so the
    condition propagates to all pairs.
    """
    if policy is SparsityPolicy.NONE:
        return True
    return all(policy.threshold(a) < b for a, b in zip(x.elements, x.elements[1:]))


class ColoringTable(FrozenRecord):
    """Total coloring of increasing arity-tuples over a finite domain.

    The flat table lists colors in lexicographic tuple order, matching the
    serialized form, so enumeration and round-tripping are trivial.  A
    lookup maps values to domain positions and reads the table at the
    lexicographic rank of the position tuple, so no per-tuple index is
    built.
    """

    domain: FinSet
    arity: int
    colors: int
    table: tuple[int, ...]
    _pos: dict  # value -> domain position
    _row: tuple  # pair row offsets, for arity 2

    def __init__(self, domain: FinSet, arity: int, colors: int, table: tuple[int, ...]) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "table", table)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        n = len(self.domain)
        expected = comb(n, self.arity)
        if len(self.table) != expected:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {expected}"
            )
        for c in set(self.table):
            if not 0 <= c < self.colors:
                # name the first offending entry in table order
                c = next(c for c in self.table if not 0 <= c < self.colors)
                raise ValueError(f"color {c} out of range 0..{self.colors - 1}")
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(self.domain.elements)})
        # pair (i, j) sits at rank i*(2n-i-1)/2 + j-i-1: the row offset plus
        # j, and row i+1's offset is row i's plus n-i-2
        rows = accumulate(range(n - 2, -1, -1), initial=-1) if self.arity == 2 and n else ()
        object.__setattr__(self, "_row", tuple(rows))

    @classmethod
    def from_function(
        cls,
        domain: FinSet,
        arity: int,
        colors: int,
        fn: Callable[..., int],
    ) -> "ColoringTable":
        table = tuple(fn(*t) for t in combinations(domain.elements, arity))
        return cls(domain, arity, colors, table)

    @classmethod
    def random(cls, domain: FinSet, arity: int, colors: int, rng) -> "ColoringTable":
        n = comb(len(domain), arity)
        return cls(domain, arity, colors, tuple(rng.randrange(colors) for _ in range(n)))

    def __call__(self, *values: int) -> int:
        pos = self._pos
        k = len(values)
        try:
            if k == self.arity == 2:
                i, j = pos[values[0]], pos[values[1]]
                if i < j:
                    return self.table[self._row[i] + j]
            elif k == self.arity == 1:
                return self.table[pos[values[0]]]
            elif k == self.arity:
                ps = [pos[v] for v in values]
                if all(a < b for a, b in zip(ps, ps[1:])):
                    return self.table[_lex_rank(ps, len(pos))]
        except KeyError:
            pass
        if k != self.arity:
            raise KeyError(f"tuple {tuple(values)} has {k} values, not the coloring's arity {self.arity}")
        if all(map(pos.__contains__, values)):
            raise KeyError(f"tuple {tuple(values)} is not strictly increasing")
        raise KeyError(f"tuple {tuple(values)} not in coloring domain")

    def covers(self, values: Iterable[int]) -> bool:
        """Is every one of the values in the domain?  Reads the position
        index, so no set is built."""
        return all(map(self._pos.__contains__, values))

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return combinations(self.domain.elements, self.arity)

    def image(self, values: Sequence[int] | None = None) -> set[int]:
        """Set of colors used on tuples drawn from `values` (default: all)."""
        if values is None:
            return set(self.table)
        pool = sorted(set(values))
        return {self(*t) for t in combinations(pool, self.arity)}

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain": [str(v) for v in self.domain.elements],
                "arity": self.arity,
                "colors": self.colors,
                "table": list(self.table),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ColoringTable":
        """Numbers are read as in set files; colors must be JSON integers."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a coloring is a JSON object")
        domain, table = obj["domain"], obj["table"]
        if not (isinstance(domain, list) and isinstance(table, list)):
            raise ValueError("domain and table must be JSON arrays")
        for pos, c in enumerate(table):
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"table entry {pos} is not an integer: {json.dumps(c)}")
        return cls(
            FinSet(tuple(json_int(v, f"domain entry {pos}") for pos, v in enumerate(domain))),
            json_int(obj["arity"], "arity"),
            json_int(obj["colors"], "colors"),
            tuple(table),
        )


def _lex_rank(ps: Sequence[int], n: int) -> int:
    """Rank of the increasing positions ps among len(ps)-subsets of range(n).

    Combinatorial number system: the tuples that agree with ps before slot
    t and are larger at t pick their last k - t positions above ps[t], and
    summing over t counts every tuple that comes after ps.
    """
    k = len(ps)
    return comb(n, k) - 1 - sum(comb(n - 1 - p, k - t) for t, p in enumerate(ps))


def is_transitive(f: ColoringTable, elements: Sequence[int]) -> bool:
    """No triple a < b < c of elements has f(a, b) == f(b, c) != f(a, c)."""
    e = elements
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            for k in range(j + 1, len(e)):
                if f(e[i], e[j]) == f(e[j], e[k]) != f(e[i], e[k]):
                    return False
    return True


def restrict_coloring(f: ColoringTable, g: FinSet) -> ColoringTable:
    """Reindex f to g: the result colors index tuples over {0, ..., |g|-1}.

    Entry (i0, ..., i_{n-1}) of the result is f at the corresponding
    elements of g, so only the order type of g survives.  A tuple of g
    outside f's domain is a ValueError.

    Each value of g is mapped to its position in f's domain once, and each
    entry is read at the rank of its position tuple, as a lookup would.
    """
    elems, k, t = g.elements, f.arity, f.table
    ps = [f._pos.get(v) for v in elems]
    if None in ps and 0 < k <= len(ps):
        # the first tuple that leaves the domain is the first tuple, or the
        # one that ends at the first value outside it; f names it
        try:
            f(*elems[:k - 1], elems[max(ps.index(None), k - 1)])
        except KeyError as err:
            raise ValueError(f"restriction target is not a subset of the coloring domain: {err}") from None
    if k == 1:
        table = tuple(map(t.__getitem__, ps))
    elif k == 2:
        row = f._row
        table = tuple(t[row[i] + j] for i, j in combinations(ps, 2))
    else:
        n = len(f._pos)
        table = tuple(t[_lex_rank(c, n)] for c in combinations(ps, k))
    return ColoringTable(FinSet(tuple(range(len(g)))), k, f.colors, table)
