"""Finite groupings with apartness, plus homogeneous-subset searches.

A grouping for a coloring is an increasing family of blocks, each large in
the L0 sense, pairwise apart, cross-monochromatic between blocks, and such
that every set meeting all blocks is large in the L1 sense.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import product
from math import inf
from typing import Optional

from .budget import Budget, BudgetExceeded, budget_or_unlimited
from .formula import TOP, CeilingExceeded, Pi03Sentence
from .largeness import (
    Certificate,
    LargenessSpec,
    _check_admissible,
    _check_coloring,
    check_large,
    least_card,
    t_apart,
)
from .record import FrozenRecord, Record
from .sets import ColoringTable, FinSet, json_int, json_typed

FOUND = "found"
ABSENT = "absent"
EXHAUSTED = "exhausted"

TRANSVERSAL_CEILING = 200_000


# a grouping requirement is a LargenessSpec (`card:M` is LargenessSpec.card(M));
# the older name stays for callers outside the package
LSpec = LargenessSpec


def _holds(spec: LargenessSpec, elements: tuple[int, ...]) -> bool:
    """Is the set of these increasing elements large at spec?  A bare count
    (exponent 0 under TOP) reads only their number and builds no set."""
    if spec.exponent == 0 and spec.sentence is TOP:
        return len(elements) >= spec.multiplier
    return check_large(FinSet(elements), spec) is not None


def _by_count(spec: LargenessSpec, sentence: Pi03Sentence) -> bool:
    """Does the block count alone decide spec for the transversals of
    blocks apart under `sentence`?  See _every_transversal."""
    return spec.exponent == 0 and spec.sentence in (TOP, sentence)


def _every_transversal(spec: LargenessSpec, blocks: tuple[FinSet, ...], sentence: Pi03Sentence) -> bool:
    """Is every set meeting all the blocks large at spec?  The blocks are
    increasing and pairwise apart under `sentence`.  By superset closure,
    the one-point-per-block selections decide it, and each has one point
    per block.  At exponent 0 under TOP or under `sentence`, the block
    count answers: a set is large at omega^0 * K iff it holds K points
    whose consecutive ones are apart as singletons, and a selection's
    points are.  For u in block x and v in the next block y, u <= max x
    and min y <= v <= max y; x apart from y is holds_bounded(max x, min y,
    max y), antitone in its first and third bounds and monotone in its
    second, so it gives holds_bounded(u, v, v), u apart from v.  Otherwise
    past TRANSVERSAL_CEILING selections it raises CeilingExceeded."""
    if _by_count(spec, sentence):
        return len(blocks) >= spec.multiplier
    count = 1
    for b in blocks:
        count *= len(b)
        if count > TRANSVERSAL_CEILING:
            raise CeilingExceeded(f"transversal space {count}+ exceeds ceiling {TRANSVERSAL_CEILING}")
    return all(_holds(spec, sel) for sel in product(*(b.elements for b in blocks)))


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


def _validate_witness(w: GroupingWitness) -> None:
    if not w.blocks:
        raise MalformedWitness("a grouping needs at least one block")
    for b in w.blocks:
        if not b.elements:
            raise MalformedWitness("empty block")
    for left, right in zip(w.blocks, w.blocks[1:]):
        if left.maximum >= right.minimum:
            raise MalformedWitness("blocks must be increasing and disjoint")


def _cross_monochromatic(blocks: tuple[FinSet, ...], f: ColoringTable) -> bool:
    """Is each pair of blocks one color across?  f colors pairs here, as
    is_grouping checks first; the scan stops at the first clash."""
    for i, left in enumerate(blocks):
        for right in blocks[i + 1:]:
            seen = None
            for u in left.elements:
                for v in right.elements:
                    c = f(u, v)
                    if seen is None:
                        seen = c
                    elif c != seen:
                        return False
    return True


def is_grouping(
    w: GroupingWitness,
    l0: LargenessSpec,
    l1: LargenessSpec,
    sentence: Pi03Sentence,
) -> bool:
    """Check the four grouping conditions; a malformed witness, a broken
    precondition and a transversal space past the ceiling each raise.

    Apartness is asked of consecutive blocks only.  x apart from y is
    holds_bounded(max x, min y, max y), which is antitone in its first
    bound, so for blocks x < x' < y, x' apart from y implies x apart from y.
    Under TOP apartness is vacuous, so it is not asked: the witness's shape
    check and the first block's floor check already establish every
    precondition that t_apart would check again.  It is asked before the
    transversals, which _every_transversal reads as apart blocks."""
    _validate_witness(w)
    _check_admissible(w.blocks[0], sentence)  # the blocks increase
    _check_coloring((v for b in w.blocks for v in b.elements), w.coloring, 2)
    if not all(_holds(l0, b.elements) for b in w.blocks):
        return False
    if not (sentence.is_top or all(t_apart(x, y, sentence) for x, y in zip(w.blocks, w.blocks[1:]))):
        return False
    if not _every_transversal(l1, w.blocks, sentence):
        return False
    return _cross_monochromatic(w.blocks, w.coloring)


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


class GroupingWalk:
    """The walks over the groupings of f on z.

    Blocks are built by a start/extend/skip walk over the elements with
    cross-monochromaticity and apartness pruning.  `witnesses()` is the
    full walk: blocks are arbitrary subsets and every grouping is visited.
    `first_minimal()` never extends an open block that can already be
    closed: no block then has a proper prefix satisfying l0, and every
    grouping whose blocks are minimal l0-sets is still visited.  A walk
    that finishes without budget trouble has enumerated all groupings of
    its kind.  Each walk keeps its own stack, so its depth is not bounded
    by the interpreter's recursion limit.
    """

    def __init__(
        self,
        z: FinSet,
        f: ColoringTable,
        l0: LargenessSpec,
        l1: LargenessSpec,
        sentence: Pi03Sentence,
        budget: Budget,
    ):
        _check_admissible(z, sentence)
        _check_coloring(z, f, 2)
        self.z, self.f, self.l0, self.l1, self.sentence = z, f, l0, l1, sentence
        self.budget = budget
        self.ceiling_hit = False
        self.min_blocks = _min_block_count(l0, l1, z)
        # such an l1 has exponent 0, so min_blocks is its multiplier, and
        # the block count that _hit tests first decides the transversals
        self._l1_by_count = _by_count(l1, sentence)
        # l0's least size of a block, by block minimum, as the walk meets them
        self._least: dict[int, int] = {}
        self._fixed_least = l0.multiplier if l0.exponent == 0 else None
        # under TOP every block is apart from every earlier one, so the walk
        # asks no apartness question
        self._top = sentence.is_top

    def witnesses(self):
        """Every witness of the full walk, in the order a recursive walk
        would visit them."""
        if self.min_blocks > len(self.z):
            return
        # each frame is the generator of one walk node; it yields witnesses
        # and the arguments of its children
        stack = [self._node(0, (), (), None, False)]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
            elif isinstance(item, GroupingWitness):
                yield item
            else:
                stack.append(self._node(*item))

    def first_minimal(self) -> Optional[GroupingWitness]:
        """The first witness of the minimal walk, or None where the walk
        ends without one; a spent budget raises BudgetExceeded.

        The walk runs depth first over a list of frames, one per node whose
        skip chain is still being scanned, with the scan's cursor.  It runs
        each skip chain in one node.  A node has at most one child besides
        its skip child: the start at v where the open block can close or
        none is open, else the extension by v, since the minimal walk never
        extends a closeable block.  The skip child keeps the closed and open
        blocks and the established colors, and each later node on its chain
        - is not fresh, so it tests no family;
        - is closeable exactly where this node is: l0 reads only the open
          block, and a node with a child has elements left;
        - has the same `need` with fewer elements left, so the cut only
          gets stronger along the chain.
        So a chain node whose one child fails the cross and apartness checks
        has only the next skip for a child, and a node may stand for its
        whole chain: it descends into the child of each chain position whose
        child passes the checks, ticking one step for that chain node, and
        stops where the cut would end the chain.  The walk meets the same
        witnesses in the same order as one that visits every chain node, and
        the jumped positions tick no budget step.  holds_bounded is antitone
        in its first bound (a larger bound adds conjuncts), so a start that
        is not apart after m is not apart after any larger maximum either;
        that is what `dead` keeps.
        """
        elems = self.z.elements
        n = len(elems)
        if self.min_blocks > n:
            return None
        # by position: the least last-block maximum known to make a block
        # starting there not apart
        dead = [inf] * n
        # a frame: [scan cursor, the node's position, the scan's end, whether
        # the open block may close, the closed blocks (the open one among
        # them if it may close), the open block, its colors, the last closed
        # maximum a start must be apart from (-1 for none)]
        frames: list[list] = []
        node = (0, (), (), None, False)
        while True:
            if node is not None:
                i, blocks, current, cur_cross, fresh = node
                visit = self._visit(i, blocks, current, fresh)
                if visit is not None:
                    need, closeable, closed, w = visit
                    if w is not None:
                        return w
                    if i < n:
                        m = closed[-1][-1] if closeable and closed else -1
                        frames.append([i, i, min(n, n + 1 - need), closeable, closed, current, cur_cross, m])
            if not frames:
                return None
            # the next child on the last frame's skip chain; no start is
            # asked at or above the maximum kept in `dead`
            frame = frames[-1]
            cursor, i, end, closeable, closed, current, cur_cross, m = frame
            node = None
            for p in range(cursor, end):
                if closeable:
                    if m < dead[p] and (cross := self._start(closed, p, dead)) is not None:
                        node = p + 1, closed, (elems[p],), cross, True
                        break
                elif (cross := self._extension(closed, current, cur_cross, p)) is not None:
                    node = p + 1, closed, current + (elems[p],), cross, True
                    break
            if node is None:
                frames.pop()
            else:
                if p > i:
                    self.budget.tick()  # the chain node p stands for
                frame[0] = p + 1

    def _hit(self, blocks) -> Optional[GroupingWitness]:
        if not blocks or len(blocks) < self.min_blocks:
            return None
        if not self._l1_by_count:
            try:
                ok = _every_transversal(self.l1, tuple(FinSet(b) for b in blocks), self.sentence)
            except CeilingExceeded:
                self.ceiling_hit = True  # could not decide: absence claims are off
                return None
            if not ok:
                return None
        return GroupingWitness(tuple(FinSet(b) for b in blocks), self.f)

    def _cross_ok(self, blocks, v, established) -> Optional[list[int]]:
        """Colors of v against every completed block, or None on clash.
        Each pair is read once, and the scan stops at the first clash: a
        color that differs from the block's first or from the established
        one."""
        f = self.f
        out = []
        for i, b in enumerate(blocks):
            c = f(b[0], v)
            if established is not None and established[i] != c:
                return None
            for u in b[1:]:
                if f(u, v) != c:
                    return None
            out.append(c)
        return out

    def _start(self, closed, p, dead=None) -> Optional[list[int]]:
        """Colors of a block starting at position p against the closed
        blocks, or None if it is not cross-monochromatic with them or not
        apart from the last one; a start not apart after m is kept in
        `dead`, if given."""
        v = self.z.elements[p]
        cross = self._cross_ok(closed, v, None)
        if cross is None or self._top or _apart(closed, v, v, self.sentence):
            return cross
        if dead is not None:
            dead[p] = closed[-1][-1]
        return None

    def _extension(self, blocks, current, cur_cross, p) -> Optional[list[int]]:
        """Colors of the open block extended by position p against the
        closed blocks, or None if they differ from the established ones or
        the block is no longer apart from the last closed one."""
        v = self.z.elements[p]
        cross = self._cross_ok(blocks, v, cur_cross)
        if cross is None or self._top or _apart(blocks, current[0], v, self.sentence):
            return cross
        return None

    def _visit(self, i, blocks, current, fresh):
        """Enter a walk node, one budget step: blocks are closed, current is
        the open block.  None where the cut ends the node; else the elements
        a witness below still needs, whether the open block may close, the
        closed blocks with the open one if it may, and the node's witness if
        it tests one.

        The open block y is apart from the last closed block x, so it may
        close as soon as it satisfies l0.  Apartness of x < y is
        holds_bounded(max x, min y, max y), and x stays the last closed
        block while y is open.  The start of y asked holds_bounded(max x,
        min y, min y), and each extension by v asked holds_bounded(max x,
        min y, v); the last of these questions is the one for y as it
        stands, and the walk only built y because the answer was yes.
        Under TOP every one of these questions is true, so the walk does
        not ask them and the invariant holds all the same.

        A node with fewer than `need` elements left has no witness below
        it.  Every witness below has min_blocks blocks or more, and each
        block besides the closed ones and the open one takes an element
        from position i on.  Every witness below also closes the open
        block: a witness is tested where its last block closes, and the
        open block closes there or where a new block starts.  Below the
        node the open block gains elements only from position i on, and
        once closed it satisfies l0 with minimum current[0], so it holds at
        least l0's least size at that minimum.
        """
        self.budget.tick()
        elems = self.z.elements
        left = len(elems) - i
        need = self.min_blocks - len(blocks) - (1 if current else 0)
        if current:
            least = self._fixed_least or self._least.get(current[0])
            if least is None:
                available = len(elems) - bisect_left(elems, current[0])  # elements from current[0] on
                least = self._least[current[0]] = least_card(
                    current[0], self.l0.exponent, self.l0.multiplier, available
                )
            need = max(need, least - len(current))
        if left < need:
            return None
        # no block is open, or the open one satisfies l0 and so may close;
        # l0 is asked only where a family is tested or a block may start
        closeable = not current or ((fresh or left > 0) and _holds(self.l0, current))
        closed = blocks + (current,) if current and closeable else blocks
        # a candidate family is tested once, right after it changed
        return need, closeable, closed, self._hit(closed) if fresh and closeable else None

    def _node(self, i, blocks, current, cur_cross, fresh):
        """One node of the full walk: its witness, if it tests one, then the
        arguments of its children.  Starting a new block with v (closing the
        open one first) comes before extending, which finds small witnesses
        without walking long spines; the skip child comes last."""
        visit = self._visit(i, blocks, current, fresh)
        if visit is None:
            return
        _, closeable, closed, w = visit
        if w is not None:
            yield w
        if i == len(self.z):
            return
        v = self.z.elements[i]
        if closeable and (cross := self._start(closed, i)) is not None:
            yield i + 1, closed, (v,), cross, True
        if current and (cross := self._extension(blocks, current, cur_cross, i)) is not None:
            yield i + 1, blocks, current + (v,), cross, True
        yield i + 1, blocks, current, cur_cross, False


def find_grouping(
    z: FinSet,
    f: ColoringTable,
    l0: LargenessSpec,
    l1: LargenessSpec,
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
    walk = GroupingWalk(z, f, l0, l1, sentence, budget)
    try:
        w = walk.first_minimal()
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


def _min_block_count(l0: LargenessSpec, l1: LargenessSpec, z: FinSet) -> int:
    """Lower bound on the block count any grouping must have: a transversal
    has one point per block, all at least min z, so l1's least size.  Every
    block needs l0's least size, which grows with the block minimum; when
    not even a block at min z fits in z, no grouping exists: len(z) + 1.
    """
    if not z.elements:
        return least_card(1, l1.exponent, l1.multiplier, 0)  # no minimum: the least over all minima
    if least_card(z.minimum, l0.exponent, l0.multiplier, len(z)) > len(z):
        return len(z) + 1
    return least_card(z.minimum, l1.exponent, l1.multiplier, len(z))


def _apart(blocks, first, last, sentence) -> bool:
    """Is an open block from first to last apart from the last closed
    block?  A failure prunes every extension of the open block: the
    question only gets harder as last grows."""
    return not blocks or sentence.holds_bounded(blocks[-1][-1], first, last)


# ---------------------------------------------------------------------------
# Structured-subset searches (homogeneous / transitive)
# ---------------------------------------------------------------------------


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
        available = len(chosen) + len(elems) - i  # i < len(elems) here
        first = chosen[0] if chosen else elems[i]
        return available >= least_card(first, target.exponent, target.multiplier, available)

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
    _check_admissible(x, target.sentence)
    _check_coloring(x, f, 2)
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
    _check_admissible(x, target.sentence)
    _check_coloring(x, f, 2)
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
