"""Finite groupings with apartness, plus homogeneous-subset searches.

A grouping for a coloring is an increasing family of blocks, each large in
the L0 sense, pairwise apart, cross-monochromatic between blocks, and such
that every set meeting all blocks is large in the L1 sense.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import combinations, product
from typing import Optional

from .budget import Budget, BudgetExceeded, budget_or_unlimited
from .formula import Pi03Sentence
from .largeness import (
    Certificate,
    LargenessSpec,
    PreconditionError,
    SizeOverflow,
    check_large,
    minimal_interval_card,
    t_apart,
)
from .record import FrozenRecord, Record
from .sets import ColoringTable, FinSet, json_int, json_typed

FOUND = "found"
ABSENT = "absent"
EXHAUSTED = "exhausted"


class LSpec(FrozenRecord):
    """A largeness requirement: either a LargenessSpec or a cardinality bound."""

    kind: str  # 'largeness' | 'card_at_least'
    spec: Optional[LargenessSpec]
    at_least: Optional[int]

    def __init__(
        self, kind: str, spec: Optional[LargenessSpec] = None, at_least: Optional[int] = None
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "at_least", at_least)

    @classmethod
    def largeness(cls, spec: LargenessSpec) -> "LSpec":
        return cls("largeness", spec=spec)

    @classmethod
    def card(cls, m: int) -> "LSpec":
        return cls("card_at_least", at_least=m)

    def holds(self, s: FinSet) -> bool:
        if self.kind == "card_at_least":
            return len(s) >= self.at_least
        return check_large(s, self.spec) is not None


class GroupingWitness(FrozenRecord):
    blocks: tuple[FinSet, ...]
    coloring: ColoringTable

    def __init__(self, blocks: tuple[FinSet, ...], coloring: ColoringTable) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "coloring", coloring)

    def to_json(self) -> str:
        return json.dumps({"blocks": [[str(v) for v in b] for b in self.blocks]})

    @classmethod
    def from_json(cls, text: str, coloring: ColoringTable) -> "GroupingWitness":
        obj = json_typed(json.loads(text), dict, "a witness")
        blocks = [json_typed(b, list, "a block") for b in json_typed(obj["blocks"], list, "blocks")]
        return cls(tuple(FinSet(tuple(json_int(v, "a block entry") for v in b)) for b in blocks), coloring)


class MalformedWitness(ValueError):
    pass


TRANSVERSAL_CEILING = 200_000


def _validate_witness(w: GroupingWitness) -> None:
    if not w.blocks:
        raise MalformedWitness("a grouping needs at least one block")
    for b in w.blocks:
        if not b.elements:
            raise MalformedWitness("empty block")
    for left, right in zip(w.blocks, w.blocks[1:]):
        if left.maximum >= right.minimum:
            raise MalformedWitness("blocks must be increasing and disjoint")
    union = [v for b in w.blocks for v in b]
    for t in combinations(union, w.coloring.arity):
        w.coloring(*t)  # raises KeyError if the coloring is not total here


def _transversals_in_l1(blocks: tuple[FinSet, ...], l1: LSpec) -> bool:
    """Condition on sets meeting every block, via minimal transversals.

    Both LSpec kinds are closed under supersets, so it is enough that every
    one-point-per-block selection satisfies l1; for a cardinality bound that
    collapses to comparing the block count.
    """
    if l1.kind == "card_at_least":
        return len(blocks) >= l1.at_least
    count = 1
    for b in blocks:
        count *= len(b)
        if count > TRANSVERSAL_CEILING:
            raise MalformedWitness(
                f"transversal space {count}+ exceeds ceiling {TRANSVERSAL_CEILING}"
            )
    return all(
        l1.holds(FinSet(sel)) for sel in product(*(b.elements for b in blocks))
    )


def _cross_monochromatic(blocks: tuple[FinSet, ...], f: ColoringTable) -> bool:
    n = f.arity
    for picks in combinations(range(len(blocks)), n):
        seen = None
        for combo in product(*(blocks[i].elements for i in picks)):
            c = f(*combo)
            if seen is None:
                seen = c
            elif c != seen:
                return False
    return True


def is_grouping(
    w: GroupingWitness,
    l0: LSpec,
    l1: LSpec,
    sentence: Pi03Sentence,
) -> bool:
    """Check the four grouping conditions; malformed witnesses raise."""
    _validate_witness(w)
    if not all(l0.holds(b) for b in w.blocks):
        return False
    if not _transversals_in_l1(w.blocks, l1):
        return False
    if not _cross_monochromatic(w.blocks, w.coloring):
        return False
    for i in range(len(w.blocks)):
        for j in range(i + 1, len(w.blocks)):
            if not t_apart(w.blocks[i], w.blocks[j], sentence):
                return False
    return True


class SearchOutcome(Record):
    status: str  # found | absent | exhausted
    witness: Optional[GroupingWitness]
    subset: Optional[FinSet]
    certificate: Optional[Certificate]
    steps: int
    detail: str

    def __init__(
        self,
        status: str,
        witness: Optional[GroupingWitness] = None,
        subset: Optional[FinSet] = None,
        certificate: Optional[Certificate] = None,
        steps: int = 0,
        detail: str = "",
    ) -> None:
        self.status, self.witness, self.subset = status, witness, subset
        self.certificate, self.steps, self.detail = certificate, steps, detail


class ColoringMismatch(ValueError):
    """The coloring cannot color the pairs of the set being searched."""


class GroupingWalk:
    """Generator-backed walk over the groupings of f on z.

    Blocks are built by a start/extend/skip walk over the elements with
    cross-monochromaticity and apartness pruning.  With `minimal`, an open
    block that can already be closed is never extended: no block then has a
    proper prefix satisfying l0, and every grouping whose blocks are minimal
    l0-sets is still visited.  Otherwise blocks are arbitrary subsets and
    every grouping is visited.  A walk that finishes without budget trouble
    has enumerated all groupings of its kind.  The walk keeps its own stack,
    so its depth is not bounded by the interpreter's recursion limit.
    """

    def __init__(
        self,
        z: FinSet,
        f: ColoringTable,
        l0: LSpec,
        l1: LSpec,
        sentence: Pi03Sentence,
        budget: Budget,
        minimal: bool = False,
    ):
        if f.arity != 2:
            raise ColoringMismatch("grouping search expects a pair coloring")
        if not z.subset_of(f.domain):
            raise ColoringMismatch("the coloring's domain does not cover the set")
        if z.elements and z.minimum < sentence.floor():
            raise PreconditionError("set minimum below the sentence's admissible floor")
        self.z, self.f, self.l0, self.l1, self.sentence = z, f, l0, l1, sentence
        self.budget = budget
        self.minimal = minimal
        self.ceiling_hit = False
        self.min_blocks = _min_block_count(l0, l1, z)
        # l0's least block size: one number for a cardinality bound, else
        # by block minimum, as the walk meets them
        self._fixed_least = l0.at_least if l0.kind == "card_at_least" else None
        self._least_block: dict[int, int] = {}

    def witnesses(self):
        if self.min_blocks > len(self.z):
            return
        # each frame is the generator of one walk node; it yields witnesses
        # and the arguments of its children, in the order a recursive walk
        # would visit them
        stack = [self._node(0, (), (), None, False)]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
            elif isinstance(item, GroupingWitness):
                yield item
            else:
                stack.append(self._node(*item))

    def _closeable(self, blocks, current) -> bool:
        cur = FinSet(current)
        if not self.l0.holds(cur):
            return False
        if blocks:
            if not t_apart(FinSet(blocks[-1]), cur, self.sentence):
                return False
        return True

    def _hit(self, blocks) -> Optional[GroupingWitness]:
        if not blocks or len(blocks) < self.min_blocks:
            return None
        try:
            ok = _transversals_in_l1(tuple(FinSet(b) for b in blocks), self.l1)
        except MalformedWitness:
            self.ceiling_hit = True  # could not decide: absence claims are off
            return None
        if not ok:
            return None
        return GroupingWitness(tuple(FinSet(b) for b in blocks), self.f)

    def _cross_ok(self, blocks, v, established) -> Optional[list[int]]:
        """Colors of v against every completed block, or None on clash."""
        f = self.f
        out = []
        for i, b in enumerate(blocks):
            colors = {f(u, v) for u in b}
            if len(colors) != 1:
                return None
            c = colors.pop()
            if established is not None and established[i] != c:
                return None
            out.append(c)
        return out

    def _least_open(self, first: int) -> int:
        """l0's least size for a block with minimum `first`, remembered for
        the walk; past the elements from `first` on when none fits."""
        elems = self.z.elements
        least = self._least_block[first] = _least_size(self.l0, first, len(elems) - bisect_left(elems, first))
        return least

    def _node(self, i, blocks, current, cur_cross, fresh):
        """One walk node: blocks are closed, current is the open block.

        A node whose open block cannot reach l0's least size with the
        elements from position i on has no witness below it.  Every witness
        below closes the open block: a witness is tested where its last
        block closes, and the open block closes there or where a new block
        starts.  Below the node the open block gains elements only from
        position i on, and once closed it satisfies l0 with minimum
        current[0], so it holds at least l0's least size at that minimum.
        """
        self.budget.tick()
        elems = self.z.elements
        left = len(elems) - i
        if len(blocks) + (1 if current else 0) + left < self.min_blocks:
            return
        if current:
            least = self._fixed_least
            if least is None:
                least = self._least_block.get(current[0]) or self._least_open(current[0])
            if len(current) + left < least:
                return
        closeable = None
        if fresh:
            # a candidate family is tested once, right after it changed
            candidate = blocks
            if current:
                closeable = self._closeable(blocks, current)
                candidate = blocks + (current,) if closeable else None
            if candidate is not None:
                w = self._hit(candidate)
                if w is not None:
                    yield w
        if i == len(elems):
            return
        v = elems[i]
        # start a new block with v (closing the open one first); starting
        # before extending finds small witnesses without walking long spines
        base, ok = blocks, True
        if current:
            if closeable is None:
                closeable = self._closeable(blocks, current)
            if closeable:
                base = blocks + (current,)
            else:
                ok = False
        if ok:
            cross = self._cross_ok(base, v, None)
            if cross is not None and _apart_start_ok(base, v, self.sentence):
                yield i + 1, base, (v,), cross, True
        # extend the open block; a minimal block stops once it can close
        if current and not (self.minimal and closeable):
            cross = self._cross_ok(blocks, v, cur_cross)
            if cross is not None and _apart_extension_ok(blocks, current, v, self.sentence):
                yield i + 1, blocks, current + (v,), cross, True
        # skip v
        yield i + 1, blocks, current, cur_cross, False


def find_grouping(
    z: FinSet,
    f: ColoringTable,
    l0: LSpec,
    l1: LSpec,
    sentence: Pi03Sentence,
    budget: Budget | None = None,
) -> SearchOutcome:
    """First grouping of f over z, or a definitive absence/exhaustion.

    The walk never extends a block that could close, which still reaches
    every grouping whose blocks are minimal l0-sets.  That loses nothing:
    shrinking every block of a grouping to a minimal l0-subset keeps l0,
    cross-monochromaticity and apartness (both closed under subsets), and
    every transversal of the shrunk family is one of the original, so l1
    holds too.

    A completed walk with no hit proves absence; running out of budget (or
    an undecidable transversal check) is reported as exhausted, never as
    absence.
    """
    budget = budget_or_unlimited(budget)
    budget.enter("grouping search")
    walk = GroupingWalk(z, f, l0, l1, sentence, budget, minimal=True)
    try:
        w = next(walk.witnesses(), None)
    except BudgetExceeded:
        return SearchOutcome(EXHAUSTED, steps=budget.spent, detail="grouping search")
    if w is None:
        if walk.ceiling_hit:
            return SearchOutcome(
                EXHAUSTED, steps=budget.spent, detail="transversal ceiling blocked some candidates"
            )
        return SearchOutcome(ABSENT, steps=budget.spent)
    if not is_grouping(w, l0, l1, sentence):
        raise RuntimeError("grouping walk produced a family that is not a grouping")
    return SearchOutcome(FOUND, witness=w, steps=budget.spent)


def _min_block_count(l0: LSpec, l1: LSpec, z: FinSet) -> int:
    """Lower bound on the block count any grouping must have: a transversal
    has one point per block, all at least min z, so l1's least size.  Every
    block needs l0's least size, which grows with the block minimum; when
    not even a block at min z fits in z, no grouping exists: len(z) + 1.
    """
    if not z.elements:
        return l1.at_least if l1.kind == "card_at_least" else 1
    if _least_size(l0, z.minimum, len(z)) > len(z):
        return len(z) + 1
    return _least_size(l1, z.minimum, len(z))


def _least_size(spec: LSpec, first: int, available: int) -> int:
    """Least size of a set with minimum >= first that meets spec; any value
    past available means none fits."""
    if spec.kind == "card_at_least":
        return spec.at_least
    return _needed_count(first, spec.spec.exponent, spec.spec.multiplier, available)


def _apart_extension_ok(blocks, current, v, sentence) -> bool:
    # apartness from the previous block only worsens as the open block
    # grows, so a failure here prunes the whole extension subtree
    if not blocks:
        return True
    prev = blocks[-1]
    return sentence.holds_bounded(prev[-1], current[0], v)


def _apart_start_ok(blocks, v, sentence) -> bool:
    if not blocks:
        return True
    prev = blocks[-1]
    return sentence.holds_bounded(prev[-1], v, v)


# ---------------------------------------------------------------------------
# Structured-subset searches (homogeneous / transitive)
# ---------------------------------------------------------------------------


def _needed_count(first: int, exponent: int, multiplier: int, available: int) -> int:
    """Least cardinality any witness with minimum >= first can have; any
    value past available means none fits."""
    total, v = 0, first
    try:
        for _ in range(multiplier):
            c = minimal_interval_card(v, exponent, cap=available + 1)
            total += c
            v += c
            if total > available:
                break
    except SizeOverflow:
        return available + 1
    return total


def _subset_search(
    x: FinSet,
    target: LargenessSpec,
    budget: Budget,
    compatible,
    anchor: Optional[int] = None,
    accept=None,
) -> SearchOutcome:
    """DFS over subsets of x in element order, include-first.

    `compatible(chosen, v)` guards growth; `accept(chosen)` (default: the
    largeness target) decides hits.  Pruning uses the exact minimal
    cardinality a witness with the current minimum could have.
    """
    elems = x.elements
    accept_fn = accept
    if accept_fn is None:
        def accept_fn(chosen: tuple[int, ...]) -> Optional[Certificate]:
            return check_large(FinSet(chosen), target, budget=budget)

    def bound_ok(chosen: tuple[int, ...], i: int) -> bool:
        pool = len(elems) - i
        first = chosen[0] if chosen else (elems[i] if i < len(elems) else None)
        if first is None:
            return False
        available = len(chosen) + pool
        return available >= _needed_count(first, target.exponent, target.multiplier, available)

    try:
        out = _include_first_dfs(elems, budget, compatible, accept_fn, bound_ok, anchor)
    except BudgetExceeded:
        return SearchOutcome(EXHAUSTED, steps=budget.spent)
    if out is None:
        return SearchOutcome(ABSENT, steps=budget.spent)
    chosen, cert = out
    return SearchOutcome(FOUND, subset=FinSet(chosen), certificate=cert, steps=budget.spent)


def _include_first_dfs(
    elems: tuple[int, ...], budget: Budget, compatible, accept, bound_ok, anchor: Optional[int]
) -> Optional[tuple[tuple[int, ...], Certificate]]:
    """The first accepted subset of elems in include-first order, and its
    certificate.  A node is (next index, chosen so far), one budget step
    each; its include child is pushed last, so the whole include subtree is
    walked before the skip child.  The stack keeps deep sets off the
    interpreter's recursion limit."""
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        i, chosen = stack.pop()
        budget.tick()
        if chosen and (anchor is None or chosen[0] == anchor):
            cert = accept(chosen)
            if cert is not None:
                return chosen, cert
        if i == len(elems) or not bound_ok(chosen, i):
            continue
        v = elems[i]
        # anchored searches must include the anchor first
        if anchor is None or chosen or v != anchor:
            stack.append((i + 1, chosen))
        if (anchor is None or chosen or v == anchor) and compatible(chosen, v):
            stack.append((i + 1, chosen + (v,)))
    return None


def find_homogeneous(
    x: FinSet,
    f: ColoringTable,
    target: LargenessSpec,
    budget: Budget | None = None,
    color: Optional[int] = None,
    anchor: Optional[int] = None,
    accept=None,
) -> SearchOutcome:
    """Search for an f-homogeneous subset meeting the largeness target.

    Sound always; complete (absent is definitive) when the budget allows
    the walk to finish.  `color` pins the homogeneous color and `anchor`
    forces the subset minimum.
    """
    if f.arity != 2:
        raise ValueError("homogeneous search expects a pair coloring")
    budget = budget_or_unlimited(budget)
    budget.enter("homogeneous search")

    def compatible(chosen: tuple[int, ...], v: int) -> bool:
        c = color if len(chosen) < 2 else f(chosen[0], chosen[1])
        for u in chosen:
            cu = f(u, v)
            if c is None:
                c = cu
            elif cu != c:
                return False
        return True

    return _subset_search(x, target, budget, compatible, anchor, accept)


def find_transitive(
    x: FinSet,
    f: ColoringTable,
    target: LargenessSpec,
    budget: Budget | None = None,
) -> SearchOutcome:
    """Search for an f-transitive subset meeting the largeness target."""
    if f.arity != 2:
        raise ValueError("transitive search expects a pair coloring")
    budget = budget_or_unlimited(budget)
    budget.enter("transitive search")

    def compatible(chosen: tuple[int, ...], v: int) -> bool:
        for a in range(len(chosen)):
            for b in range(a + 1, len(chosen)):
                u, w = chosen[a], chosen[b]
                if f(u, w) == f(w, v) != f(u, v):
                    return False
        return True

    return _subset_search(x, target, budget, compatible)
