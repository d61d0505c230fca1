"""Largeness decision procedures with independently checkable certificates.

The size notion is the recursive one: a set is large at exponent 0 when
nonempty, and large at exponent n+1 when the set minus its minimum splits
into min-many blocks large at exponent n; multiplier k asks for k blocks.
Under an apartness sentence T, blocks must additionally be pairwise T-apart.
"""

from __future__ import annotations

import json
from typing import Iterable

from .budget import Budget, budget_or_unlimited
from .formula import TOP, Pi03Sentence
from .record import FrozenRecord
from .sets import ColoringTable, FinSet, json_int, json_typed


class PreconditionError(ValueError):
    pass


class SizeOverflow(ValueError):
    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeds budget {budget}")
        self.budget = budget


class LargenessSpec(FrozenRecord):
    """Denotes largeness at omega^exponent * multiplier under `sentence`."""

    exponent: int
    multiplier: int
    sentence: Pi03Sentence

    def __init__(self, exponent: int, multiplier: int = 1, sentence: Pi03Sentence = TOP) -> None:
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "sentence", sentence)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.exponent < 0 or self.multiplier < 1:
            raise ValueError("exponent must be >= 0 and multiplier >= 1")

    @classmethod
    def card(cls, m: int) -> "LargenessSpec":
        """At least m elements: omega^0 * m under TOP, whose blocks are any
        m points, since TOP keeps every pair apart.  card(0) is card(1): a
        requirement is asked only of a block or of a transversal of a
        family of blocks, and both are nonempty (blocks are nonempty and a
        family has one), so "at least 0 elements" and "at least 1" agree
        on every set they are asked of."""
        return cls(0, max(m, 1), TOP)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Leaf(FrozenRecord):
    """Witnesses exponent 0: the block is nonempty."""

    __slots__ = ("witness",)
    witness: int

    def __init__(self, witness: int) -> None:
        object.__setattr__(self, "witness", witness)


class Node(FrozenRecord):
    """Witnesses exponent n >= 1: head is the block minimum, children are
    exactly `head` blocks at exponent n-1 drawn from the block minus head."""

    __slots__ = ("head", "children")
    head: int
    children: tuple["Block", ...]

    def __init__(self, head: int, children: tuple["Block", ...]) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "children", children)


class Block(FrozenRecord):
    """Half-open index range [lo, hi) into the root set's element list."""

    __slots__ = ("lo", "hi", "cert")
    lo: int
    hi: int
    cert: "Leaf | Node"

    def __init__(self, lo: int, hi: int, cert: "Leaf | Node") -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "cert", cert)


class Certificate(FrozenRecord):
    __slots__ = ("exponent", "multiplier", "blocks")
    exponent: int
    multiplier: int
    blocks: tuple[Block, ...]

    def __init__(self, exponent: int, multiplier: int, blocks: tuple[Block, ...]) -> None:
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "blocks", blocks)

    def to_obj(self) -> dict:
        return {
            "exponent": self.exponent,
            "multiplier": self.multiplier,
            "blocks": [_block_obj(b) for b in self.blocks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "Certificate":
        """Numbers are read as in set files; a value of the wrong JSON type
        is a ValueError."""
        obj = json_typed(obj, dict, "a certificate")
        return cls(
            json_int(obj["exponent"], "exponent"),
            json_int(obj["multiplier"], "multiplier"),
            tuple(_block_from(o) for o in json_typed(obj["blocks"], list, "blocks")),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_obj(json.loads(text))


def _block_obj(b: Block) -> dict:
    if isinstance(b.cert, Leaf):
        cert = {"kind": "leaf", "witness": str(b.cert.witness)}
    else:
        cert = {
            "kind": "node",
            "head": str(b.cert.head),
            "children": [_block_obj(c) for c in b.cert.children],
        }
    return {"lo": b.lo, "hi": b.hi, "cert": cert}


def _block_from(obj: dict) -> Block:
    obj = json_typed(obj, dict, "a block")
    c = json_typed(obj["cert"], dict, "a block's cert")
    if c["kind"] == "leaf":
        cert: Leaf | Node = Leaf(json_int(c["witness"], "witness"))
    else:
        children = json_typed(c["children"], list, "children")
        cert = Node(json_int(c["head"], "head"), tuple(_block_from(o) for o in children))
    return Block(json_int(obj["lo"], "lo"), json_int(obj["hi"], "hi"), cert)


def shift_cert(cert: Leaf | Node, delta: int) -> Leaf | Node:
    """Translate all index ranges by delta (for embedding into a superset)."""
    if isinstance(cert, Leaf):
        return cert
    return Node(
        cert.head,
        tuple(Block(b.lo + delta, b.hi + delta, shift_cert(b.cert, delta)) for b in cert.children),
    )


# ---------------------------------------------------------------------------
# Input preconditions and apartness
# ---------------------------------------------------------------------------
# Each precondition on an input has one owner here; every public entry that
# takes a set with a sentence or a coloring calls it before any work.


def _check_admissible(x: FinSet, sentence: Pi03Sentence) -> None:
    """The sentence reads only sets whose minimum is at least its floor."""
    floor = sentence.floor()
    if x.elements and x.minimum < floor:
        raise PreconditionError(f"min {x.minimum} below admissible floor {floor} for this sentence")


def _check_coloring(values: Iterable[int], f: ColoringTable, arity: int) -> None:
    """f colors the arity-tuples of the values (a set, or the points of a
    family of blocks): it has that arity, and its domain covers them.  The
    domain itself, or a set equal to it, is covered without a scan."""
    if f.arity != arity:
        raise PreconditionError(f"expects a coloring of arity {arity}, not {f.arity}")
    domain = f.domain
    if values is domain or isinstance(values, FinSet) and values.elements == domain.elements:
        return
    if not f.covers(values):
        raise PreconditionError("the coloring's domain does not cover the set")


def t_apart(x: FinSet, y: FinSet, sentence: Pi03Sentence) -> bool:
    """Apartness of two blocks x < y under the sentence.

    Holds iff for all v < max x there is w < min y such that theta(v, w, u)
    for all u < max y.
    """
    if not x.elements or not y.elements:
        raise PreconditionError("apartness needs two nonempty blocks")
    if x.maximum >= y.minimum:
        raise PreconditionError("blocks must satisfy max x < min y")
    _check_admissible(x, sentence)
    _check_admissible(y, sentence)
    return sentence.holds_bounded(x.maximum, y.minimum, y.maximum)


# ---------------------------------------------------------------------------
# Exact size recurrences for minimal intervals (plain largeness)
# ---------------------------------------------------------------------------


def minimal_interval_card(base: int, exponent: int, cap: int) -> int:
    """Cardinality of the minimal interval large at `exponent` above base.

    Exact integer arithmetic throughout; raises SizeOverflow as soon as the
    count (or the work to compute it) would exceed cap.  The minimal witness
    is an interval, so its maximum is base + cardinality - 1.
    """
    if base < 1:
        raise PreconditionError("base must be positive")
    if exponent < 0:
        raise PreconditionError("exponent must be >= 0")
    return _interval_card(base, exponent, cap, [max(cap, 10 ** 6)])


def _card_passes(b: int, n: int, cap: int) -> bool:
    """A lower bound on the card above b at exponent n >= 2 passes cap;
    checked before the recurrence descends, so its depth stays a few levels.

    The first children from b down to exponent 2 end at base b + n - 2,
    whose card is at least 2^(b+n-2).  Each node strictly between there and
    the root has base >= 2, hence a second child, whose base passes the
    first child's card c, which makes its own card at least 2^c.
    """
    bits = cap.bit_length()  # a card of at least 2^bits passes the cap
    e = b + n - 2
    for _ in range(n - 3):
        if e >= bits:
            break
        e = 1 << e
    return e >= bits


def _interval_card(b: int, n: int, cap: int, work: list[int]) -> int:
    """minimal_interval_card above b at exponent n; work[0] is the number of
    recurrence steps still allowed, shared by the whole recursion."""
    work[0] -= 1
    if work[0] < 0:
        raise SizeOverflow("recurrence work", cap)
    if n == 0:
        return 1
    if n == 1:
        out = b + 1
    elif _card_passes(b, n, cap):
        raise SizeOverflow("interval cardinality", cap)
    elif n == 2:
        # head, then b chained exponent-1 intervals: minima follow
        # m_{j+1} = 2*m_j + 1 from b+1, totalling (b+2)(2^b - 1)
        out = 1 + (b + 2) * ((1 << b) - 1)
    else:
        out = 1
        nxt = b + 1
        for _ in range(b):
            c = _interval_card(nxt, n - 1, cap, work)
            out += c
            nxt += c
            if out > cap:
                raise SizeOverflow("interval cardinality", cap)
    if out > cap:
        raise SizeOverflow("interval cardinality", cap)
    return out


def least_card(first: int, exponent: int, multiplier: int, available: int) -> int:
    """Least size of a set with minimum >= first that is large at
    omega^exponent * multiplier under any sentence (apartness only shrinks
    the witness family); any value past `available` means none fits.  At
    exponent 0 every block is one point, so the least size is `multiplier`."""
    if exponent == 0:
        return multiplier
    total = 0
    try:
        for _ in range(multiplier):  # blocks no smaller than minimal intervals
            total += minimal_interval_card(first + total, exponent, cap=available + 1)
            if total > available:
                break
    except SizeOverflow:
        return available + 1
    return total


# ---------------------------------------------------------------------------
# Plain (TOP) largeness: greedy leftmost-minimal checker
# ---------------------------------------------------------------------------


def _plain_min_end(values: tuple[int, ...], pos: int, n: int) -> int | None:
    """End index (exclusive) of the shortest large prefix of values[pos:]
    at exponent n, or None.  Greedy leftmost-minimal blocks are complete
    for plain largeness: shrinking or left-shifting a block never hurts."""
    if pos >= len(values):
        return None
    if n == 0:
        return pos + 1
    if values[pos] and (len(values) - pos).bit_length() <= n:
        return None  # a positive minimum needs 2^n elements; bounds the depth
    q = pos + 1
    for _ in range(values[pos]):
        q2 = _plain_min_end(values, q, n - 1)
        if q2 is None:
            return None
        q = q2
    return q


def is_plain_large(values: tuple[int, ...], exponent: int, multiplier: int = 1) -> bool:
    """Plain largeness decision (no apartness) via the greedy checker."""
    pos = 0
    for _ in range(multiplier):
        end = _plain_min_end(values, pos, exponent)
        if end is None:
            return False
        pos = end
    return True


def is_minimal(x: FinSet, n: int) -> bool:
    """Large at exponent n, and no single deletion stays large."""
    if not is_plain_large(x.elements, n):
        return False
    return all(
        not is_plain_large(tuple(v for v in x.elements if v != drop), n)
        for drop in x.elements
    )


def minimal_large_interval(x: int, n: int, budget: int = 10 ** 6) -> FinSet:
    """The interval [x, y] minimal for largeness at exponent n.

    Cardinality is computed by recurrence first, so oversize requests fail
    fast with SizeOverflow instead of materializing.  Minimality is
    re-validated by is_minimal up to 3000 elements.
    """
    if x < 3:
        raise PreconditionError("base must be at least 3")
    card = minimal_interval_card(x, n, cap=budget)
    out = FinSet.interval(x, x + card - 1)
    if card <= 3000 and not is_minimal(out, n):
        raise RuntimeError("recurrence produced a non-minimal interval")
    return out


# ---------------------------------------------------------------------------
# Certified complete search under an apartness sentence
# ---------------------------------------------------------------------------


class _Searcher:
    """Backtracking over contiguous block runs with memoization.

    Any witnessing family can be normalized to contiguous runs with minimal
    ends: filling interior gaps changes neither block minima nor maxima (so
    apartness is unaffected) and largeness is closed under supersets, while
    shrinking a block to its minimal end weakens every remaining constraint.
    The scan therefore only considers, for each start, the shortest large
    run from that start, which keeps the search complete and makes the
    returned certificate lexicographically least.
    """

    def __init__(self, xs: tuple[int, ...], sentence: Pi03Sentence, budget: Budget):
        self.xs = xs
        self.sentence = sentence
        self.budget = budget
        self._estar: dict[tuple[int, int], int | None] = {}
        self._place: dict[tuple[int, int, int, int, int], tuple | None] = {}

    def apart_ok(self, prev_max_idx: int, s: int, e: int) -> bool:
        if prev_max_idx < 0:
            return True
        return self.sentence.holds_bounded(
            self.xs[prev_max_idx], self.xs[s], self.xs[e - 1]
        )

    def e_star(self, s: int, n: int) -> int | None:
        """Minimal exclusive end e with xs[s:e] large at exponent n."""
        key = (s, n)
        if key in self._estar:
            return self._estar[key]
        if n == 0:
            out: int | None = s + 1
        else:
            m = self.xs[s]
            least = s + least_card(m, n, 1, len(self.xs) - s)
            out = None
            e = least
            while e <= len(self.xs):
                if self.place(s + 1, e, n - 1, m, -1) is not None:
                    out = e
                    break
                e += 1
        self._estar[key] = out
        return out

    def place(
        self, i: int, j: int, n: int, k: int, prev: int
    ) -> tuple[Block, ...] | None:
        """Lexicographically least chain of k apart blocks in xs[i:j].

        Iterative backtracking (chains can run to thousands of blocks, far
        past the interpreter's recursion limit), memoized per suffix state.
        """
        miss = object()
        memo = self._place

        def lookup(ii: int, kk: int, pp: int):
            if kk == 0:
                return ()
            return memo.get((ii, j, n, kk, pp), miss)

        top = lookup(i, k, prev)
        if top is not miss:
            return top

        # frame: [ii, pp, kk, scan cursor]; chosen[d] pairs with frames[d]
        frames: list[list[int]] = [[i, prev, k, i]]
        chosen: list[Block] = []
        while frames:
            self.budget.tick()
            frame = frames[-1]
            ii, pp, kk, s = frame
            outcome: tuple[Block, ...] | None = miss  # type: ignore[assignment]
            while s < j:
                e = self.e_star(s, n)
                if e is None or e > j:
                    s = j  # e_star is nondecreasing in s: no later start fits
                    break
                if self.apart_ok(pp, s, e):
                    child = lookup(e, kk - 1, e - 1)
                    if child is miss:
                        block = Block(s, e, self.cert_for(s, e, n))
                        frame[3] = s + 1
                        chosen.append(block)
                        frames.append([e, e - 1, kk - 1, e])
                        break
                    if child is not None:
                        block = Block(s, e, self.cert_for(s, e, n))
                        outcome = (block,) + child
                        break
                s += 1
            if frames[-1] is not frame:
                continue  # descended into a fresh child frame
            if outcome is miss:
                outcome = None  # scan exhausted with no viable block
            # resolve this frame and cascade successes upward
            while True:
                memo[(ii, j, n, kk, pp)] = outcome
                frames.pop()
                if outcome is None:
                    if chosen and frames:
                        chosen.pop()  # parent's block did not pan out
                    break
                if not frames:
                    return outcome
                block = chosen.pop()
                outcome = (block,) + outcome
                ii, pp, kk = frames[-1][0], frames[-1][1], frames[-1][2]
        return memo.get((i, j, n, k, prev))

    def cert_for(self, s: int, e: int, n: int) -> Leaf | Node:
        if n == 0:
            return Leaf(self.xs[s])
        children = self.place(s + 1, e, n - 1, self.xs[s], -1)
        if children is None:
            raise RuntimeError("e_star promised a fitting decomposition")
        return Node(self.xs[s], children)


def check_large(
    x: FinSet, spec: LargenessSpec, *, budget: Budget | None = None
) -> Certificate | None:
    """Search for a largeness certificate; None means no witness exists.

    The search is complete and returns the lexicographically least
    certificate; consecutive blocks are checked for apartness, which
    suffices by transitivity.
    """
    _check_admissible(x, spec.sentence)
    if not x.elements:
        return None
    searcher = _Searcher(x.elements, spec.sentence, budget_or_unlimited(budget))
    blocks = searcher.place(0, len(x.elements), spec.exponent, spec.multiplier, -1)
    if blocks is None:
        return None
    return Certificate(spec.exponent, spec.multiplier, blocks)


def large_color_class(values, color, spec: LargenessSpec, budget: Budget | None = None):
    """(color, class, certificate) for the first color, in increasing order,
    whose whole class among the increasing values is large at spec, or None.
    Largeness is closed under supersets, so a homogeneous subset large at
    spec exists iff some whole color class is large."""
    classes: dict[int, list[int]] = {}
    for v in values:
        classes.setdefault(color(v), []).append(v)
    for c in sorted(classes):
        cls = FinSet(tuple(classes[c]))
        cert = check_large(cls, spec, budget=budget)
        if cert is not None:
            return c, cls, cert
    return None


def is_large(x: FinSet, spec: LargenessSpec, budget: Budget | None = None) -> bool:
    if spec.sentence.is_top:
        # plain largeness has the classical complete greedy
        _check_admissible(x, spec.sentence)
        return is_plain_large(x.elements, spec.exponent, spec.multiplier)
    return check_large(x, spec, budget=budget) is not None


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------


def verify_certificate(
    x: FinSet,
    cert: Certificate,
    spec: LargenessSpec,
    paranoid: bool = False,
) -> bool:
    """Structural re-check of a certificate against the set and spec.

    Every block range, child count, head value and apartness condition is
    re-evaluated from scratch; `paranoid` checks apartness on all block
    pairs instead of consecutive ones.
    """
    try:
        _check_admissible(x, spec.sentence)
    except PreconditionError:
        return False
    if cert.exponent != spec.exponent or cert.multiplier != spec.multiplier:
        return False
    if len(cert.blocks) != spec.multiplier:
        return False
    xs = x.elements
    return _chain_ok(xs, spec.sentence, paranoid, cert.blocks, spec.exponent, 0, len(xs))


def _chain_ok(
    xs: tuple[int, ...], sentence: Pi03Sentence, paranoid: bool,
    blocks: tuple[Block, ...], exponent: int, lo: int, hi: int,
) -> bool:
    """Increasing blocks inside xs[lo:hi], each certified at `exponent`,
    apart on consecutive pairs (all pairs if paranoid).

    Module-level, not nested in verify_certificate: nested helpers calling
    each other form a reference cycle that keeps the sentence and its memos
    alive until the next full garbage collection."""
    prev_hi = lo
    for b in blocks:
        if not (prev_hi <= b.lo < b.hi <= hi):
            return False
        cert = b.cert
        if isinstance(cert, Leaf):
            if exponent != 0 or cert.witness not in xs[b.lo: b.hi]:
                return False
        elif exponent == 0 or cert.head != xs[b.lo] or len(cert.children) != cert.head:
            return False
        elif not _chain_ok(xs, sentence, paranoid, cert.children, exponent - 1, b.lo + 1, b.hi):
            return False
        prev_hi = b.hi
    pairs = (
        [(i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
        if paranoid
        else [(i, i + 1) for i in range(len(blocks) - 1)]
    )
    for i, j in pairs:
        bi, bj = blocks[i], blocks[j]
        if not sentence.holds_bounded(xs[bi.hi - 1], xs[bj.lo], xs[bj.hi - 1]):
            return False
    return True
