"""Symbolic minimal large intervals: canonical blocks, the separation
sentence they induce, the parity coloring, and the lower-bound verifier.

A minimal large interval decomposes uniquely: head element, then head-many
minimal blocks one exponent down.  Trees here never materialize unless
asked with a budget; sizes come from exact recurrences, so oversize
instances fail fast.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from typing import Iterator, Optional

from .budget import Budget, budget_or_unlimited
from .formula import (
    FIn,
    Pi03Sentence,
    SecondOrderParam,
    TAdd,
    TConst,
    TMul,
    TVar,
)
from .largeness import (
    LargenessSpec,
    PreconditionError,
    SizeOverflow,
    check_large,
    large_color_class,
    minimal_interval_card,
)
from .record import FrozenRecord, Record
from .sets import FinSet

DEFAULT_SIZE_CAP = 10 ** 7
EXPORT_VALUE_CEILING = 256


class BlockAddress(FrozenRecord):
    """Child-index path from the root to one canonical block."""

    path: tuple[int, ...]
    level: int

    def __init__(self, path: tuple[int, ...], level: int) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "level", level)


class _Blocks:
    """What a canonical tree and its blockfree views share; a tree is its
    own view at depth 0.

    A view at depth d keeps the minima of the tree's blocks at level >= d,
    and its level-c blocks are the tree's level c+d blocks cut to those
    members.  So each question about v reads v's one memoized child-index
    path in the tree: v heads the block it leads to, at view level
    rank - len(path).
    """

    tree: "CanonicalTree"
    depth: int
    rank: int

    # -- membership and navigation ----------------------------------------

    def _member_path(self, v: int) -> Optional[tuple[int, ...]]:
        """v's path in the tree if v is in this set (at most rank steps)."""
        path = self.tree._path(v)
        return path if path is not None and len(path) <= self.rank else None

    def contains(self, v: int) -> bool:
        return self._member_path(v) is not None

    def node_rank_of(self, v: int) -> int:
        """The level whose block has v as its minimum."""
        path = self._member_path(v)
        if path is None:
            raise PreconditionError(f"{v} is not in the set")
        return self.rank - len(path)

    def block_of(self, v: int, c: int) -> Optional[BlockAddress]:
        """Address of the canonical c-block containing v, if any: the first
        rank - c steps of v's path, at the tree's level c + depth.

        Block minima live only at their own level: the head of a block at
        level r belongs to no block below r.
        """
        path, steps = self._member_path(v), self.rank - c
        if path is None or not 0 <= steps <= len(path):
            return None
        return BlockAddress(path[:steps], c + self.depth)

    # -- the induced predicates -------------------------------------------

    def same_block(self, x: int, y: int, c: int) -> bool:
        a = self.block_of(x, c)
        return a is not None and a == self.block_of(y, c)

    def separates(self, x: int, y: int, z: int) -> bool:
        """Membership-guarded separation: whenever x and z are in the set
        with z >= y, some level must group y with z but split x from y.
        Members share the blocks of their paths' common steps, so: iff y
        and z share more steps than x and y."""
        px, pz = self._member_path(x), self._member_path(z)
        if px is None or pz is None or z < y:
            return True
        py = self._member_path(y)
        if y <= x or py is None:
            return False
        return _common_steps(py, pz) > _common_steps(px, py)

    def parity_color(self, v: int) -> int:
        """Color by the parity of the smallest level whose block contains v."""
        return self.node_rank_of(v) % 2

    def apart_shortcut(self, a: FinSet, b: FinSet) -> bool:
        """Apartness of two subsets collapses to one separation query on
        the boundary triple."""
        if not a.elements or not b.elements or a.maximum >= b.minimum:
            raise PreconditionError("expected nonempty subsets with max a < min b")
        if not all(self.contains(v) for v in (*a.elements, *b.elements)):
            raise PreconditionError("subsets must lie inside the tree's interval")
        return self.separates(a.maximum, b.minimum, b.maximum)

    def zero_blockfree(self) -> "BlockfreeView":
        if self.rank < 1:
            raise PreconditionError("rank must be at least 1")
        return BlockfreeView(self.tree, self.depth + 1)

    # -- materialization and export ----------------------------------------

    def materialize(self, budget: int = DEFAULT_SIZE_CAP) -> FinSet:
        return FinSet(tuple(self.iter_elements(budget)))

    def _table_formula(self, ceiling: int) -> tuple[int, FIn]:
        """The table's bound B = max + 2, and x*B^2 + y*B + z + shift in A,
        which reads entry (x+1, y+1, z+1).  The one fit test of exports and
        of verification: SizeOverflow when B passes the ceiling."""
        bound = self.max_value(cap=ceiling) + 2
        if bound > ceiling:
            raise SizeOverflow("export table bound", ceiling)
        return bound, FIn(TAdd(
            TAdd(TMul(TVar("x"), TConst(bound * bound)), TMul(TVar("y"), TConst(bound))),
            TAdd(TVar("z"), TConst(bound * bound + bound + 1)),
        ))

    def separation_sentence(self, ceiling: int = EXPORT_VALUE_CEILING) -> Pi03Sentence:
        """`export_sentence` without the table: the same formula, with
        membership in A decoded and asked of `separates`, so theta(x, y, z)
        is separates(x+1, y+1, z+1) and reads every triple as the table
        does.  Nothing is tabulated; verification uses this."""
        bound, theta = self._table_formula(ceiling)
        return Pi03Sentence(theta, 0, _SeparationTable(self, bound))

    def export_sentence(self, ceiling: int = EXPORT_VALUE_CEILING) -> Pi03Sentence:
        """The separation sentence as a formula over a tabulated parameter.

        The full triple table below bound B = max + 2 is coded into A and
        read by the indexing term x*B^2 + y*B + z at the successor of each
        argument: under the strictly bounded apartness evaluation this
        realizes inclusive bounds, which is what the boundary-triple
        shortcut is equivalent to (the strict reading loses only vacuous or
        never-witness edge points).  Exact for all triples below B, which
        covers every apartness query on subsets; beyond the ceiling use the
        structural operations instead.

        Triples whose antecedent fails (x or z outside the set, or z < y)
        are true; the table is built one x-plane at a time (`_table_bits`).
        """
        bound, theta = self._table_formula(ceiling)
        return Pi03Sentence(theta, 0, SecondOrderParam(self._table_bits(bound)))

    def _table_bits(self, bound: int) -> str:
        """The export table below the bound, as the bits of A, one x-plane
        at a time; its members are below the bound, so it sizes the
        materialization too.

        Plane x is one integer whose bit y*B + z is entry (x, y, z); a
        non-member x's plane is all ones.  A member x's plane starts from
        the base plane, one where z is no member or z < y.  For each member
        y > x, `separates` adds the members z >= y that share more steps
        with y than x does: if x and y share k steps, the members of y's
        block k + 1 steps down.  Blocks are runs of consecutive members, so
        the y > x that share exactly k steps with x are one run of rows:
        past the end of x's block k + 1 steps down (past x itself when k is
        x's whole path), up to the end of x's block k steps down.  So
        rows[k], each member's row in its block k + 1 steps down, is built
        once, and plane x ORs in one run of rows from each rows[k].
        """
        members = self.materialize(budget=bound).elements
        paths = {v: self._member_path(v) for v in members}
        block: dict[tuple[int, ...], int] = {}  # a block's path: its members
        for v, p in paths.items():
            for k in range(len(p) + 1):
                block[p[:k]] = block.get(p[:k], 0) | 1 << v
        rows = [0] * (self.rank + 1)
        for y, p in paths.items():
            for k in range(len(p)):
                rows[k] |= block[p[:k + 1]] >> y << y << y * bound
        not_member = (1 << bound) - 1 - block[()]
        base = sum(((1 << y) - 1 | not_member) << y * bound for y in range(bound))
        width, ones = bound * bound, "1" * bound * bound
        planes = [ones] * bound
        for x, p in paths.items():
            plane, lo = base, x
            for k in range(len(p), -1, -1):
                hi = block[p[:k]].bit_length() - 1  # the end of x's block k steps down
                plane |= rows[k] & (1 << (hi + 1) * bound) - (1 << (lo + 1) * bound)
                lo = hi
            planes[x] = format(plane, f"0{width}b")[::-1]
        return "".join(planes)


class _SeparationTable:
    """The exported bits of A, each read off `separates` when asked; the
    whole table is built only when `bits` is read."""

    def __init__(self, blocks: _Blocks, bound: int):
        self.blocks, self.bound = blocks, bound

    @property
    def bits(self) -> str:
        return self.blocks._table_bits(self.bound)

    def member(self, i: int) -> bool:
        xy, z = divmod(i, self.bound)
        x, y = divmod(xy, self.bound)
        return 0 <= x < self.bound and self.blocks.separates(x, y, z)


def _common_steps(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """The length of the longest common prefix of two paths."""
    return next((i for i, (a, b) in enumerate(zip(p, q)) if a != b), min(len(p), len(q)))


class CanonicalTree(_Blocks):
    """The minimal interval large at `rank` above `base`, symbolically.

    Children are built on demand.  Child i's base is child i-1's base plus
    its cardinality, so bases extend by the size recurrence alone, without
    building the children before; under a rank-1 node every child is a
    singleton, and child i's base is base + 1 + i.  All sizes are exact
    integers guarded by a cap.
    """

    depth = 0

    def __init__(self, base: int, rank: int):
        if base < 3:
            raise PreconditionError("base must be at least 3")
        self.base = base
        self.rank = rank
        self._child_bases: list[int] = [base + 1] if rank >= 1 else []
        self._children: dict[int, CanonicalTree] = {}
        self._paths: dict[int, Optional[tuple[int, ...]]] = {}

    def __repr__(self) -> str:
        return f"CanonicalTree(base={self.base}, rank={self.rank})"

    @property
    def tree(self) -> "CanonicalTree":
        return self

    def cardinality(self, cap: int | None = None) -> int:
        return minimal_interval_card(self.base, self.rank, cap if cap is not None else DEFAULT_SIZE_CAP)

    def max_value(self, cap: int | None = None) -> int:
        return self.base + self.cardinality(cap) - 1

    @property
    def child_count(self) -> int:
        return self.base if self.rank >= 1 else 0

    def child(self, i: int) -> "CanonicalTree":
        if not 0 <= i < self.child_count:
            raise IndexError(f"child {i} of a node with {self.child_count} children")
        node = self._children.get(i)
        if node is None:
            if self.rank == 1:
                base = self.base + 1 + i
            else:
                while len(self._child_bases) <= i:
                    self._extend_child_bases(DEFAULT_SIZE_CAP)
                base = self._child_bases[i]
            node = self._children[i] = CanonicalTree(base, self.rank - 1)
        return node

    def _extend_child_bases(self, cap: int) -> None:
        """Append the next child's base: the last one plus that child's
        cardinality (SizeOverflow past cap)."""
        last = self._child_bases[-1]
        self._child_bases.append(last + minimal_interval_card(last, self.rank - 1, cap))

    def _child_index(self, v: int) -> int:
        """The child whose interval holds v, for v in this interval past
        its base.  Children tile the interval: v is in the last child based
        at or below v, and the bases are extended only as far as v."""
        if self.rank == 1:
            return v - self.base - 1
        bases = self._child_bases
        while bases[-1] <= v and len(bases) < self.child_count:
            try:
                self._extend_child_bases(v - bases[-1] + 1)
            except SizeOverflow:
                break  # the last child provably extends past v
        return bisect_right(bases, v) - 1

    def children(self) -> Iterator["CanonicalTree"]:
        return map(self.child, range(self.child_count))

    def iter_elements(self, budget: int = DEFAULT_SIZE_CAP) -> Iterator[int]:
        """The members in increasing order: the set is an interval."""
        return iter(range(self.base, self.base + self.cardinality(cap=budget)))

    def _reaches(self, v: int) -> bool:
        """v lies in this node's interval, sized only as far as v."""
        if v < self.base:
            return False
        try:
            return v <= self.max_value(cap=v - self.base + 1)
        except SizeOverflow:
            return True  # the interval provably extends past v

    def _path(self, v: int) -> Optional[tuple[int, ...]]:
        """Child indices from this node down to the block whose minimum is
        v, or None outside the interval; one descent per element."""
        if v not in self._paths:
            path = None
            if self._reaches(v):
                node, steps = self, []
                while v != node.base:
                    i = node._child_index(v)
                    steps.append(i)
                    node = node.child(i)
                path = tuple(steps)
            self._paths[v] = path
        return self._paths[v]


def tree(base: int, rank: int) -> CanonicalTree:
    return CanonicalTree(base, rank)


class BlockfreeView(_Blocks):
    """The tree minus everything lying in canonical blocks below `depth`.

    What remains are exactly the minima of blocks at level >= depth; it is
    the minimal large set one rank down, with blocks shifted by the depth.
    """

    def __init__(self, base_tree: CanonicalTree, depth: int):
        if depth > base_tree.rank:
            raise PreconditionError("depth exceeds the tree rank")
        self.tree = base_tree
        self.depth = depth
        self.rank = base_tree.rank - depth

    def iter_elements(self, budget: int = DEFAULT_SIZE_CAP) -> Iterator[int]:
        # bases are yielded depth-first, children built as they are reached;
        # that order is increasing, as a node's base precedes its children's
        # and they tile its interval from left to right
        stack, count = [iter((self.tree,))], 0
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            if count >= budget:
                raise SizeOverflow("view iteration", budget)
            count += 1
            yield node.base
            if node.rank > self.depth:
                stack.append(node.children())

    def cardinality(self, cap: int = DEFAULT_SIZE_CAP) -> int:
        return sum(1 for _ in self.iter_elements(cap))

    def max_value(self, cap: int = DEFAULT_SIZE_CAP) -> int:
        return self.materialize(budget=cap).maximum


# ---------------------------------------------------------------------------
# Lower-bound verification
# ---------------------------------------------------------------------------

CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
CONSISTENT = "consistent"

EXHAUSTIVE_LIMIT = 16  # elements; beyond this the 2^N enumeration is refused


class LowerBoundReport(Record):
    status: str
    complete: bool
    checked_subsets: int = 0
    sub_instances: int = 0
    skipped: int = 0
    witness: Optional[FinSet] = None
    detail: str = ""


def _instance(tree_or_view, ceiling: int) -> tuple[FinSet, Pi03Sentence, dict[int, int]]:
    sentence = tree_or_view.separation_sentence(ceiling)
    elems = tree_or_view.materialize(budget=ceiling)
    colors = {v: tree_or_view.parity_color(v) for v in elems}
    return elems, sentence, colors


def verify_lower_bound(
    t: CanonicalTree | BlockfreeView,
    mode: str = "exhaustive",
    budget: Budget | None = None,
) -> LowerBoundReport:
    """Check that no parity-homogeneous subset is large at exponent
    (rank+1)/2 under the tree's own separation sentence.

    Exhaustive mode enumerates every subset (small instances only).
    Pruned mode decides materializable instances completely through whole
    color classes (largeness is superset-closed), and on oversize instances
    descends into materializable sub-blocks two levels down, reporting an
    honest `consistent`, never `confirmed`.
    """
    if mode not in ("exhaustive", "pruned"):
        raise ValueError(f"unknown mode {mode!r}")
    rank = t.rank
    if rank % 2 != 1:
        raise PreconditionError("lower-bound instances have odd rank 2n-1")
    n = (rank + 1) // 2
    budget = budget_or_unlimited(budget)
    budget.enter("lower-bound verification")

    if mode == "exhaustive":
        try:  # refused on the count alone, before any set or sentence is built
            t.cardinality(cap=EXHAUSTIVE_LIMIT)
        except SizeOverflow:
            raise SizeOverflow("exhaustive subset enumeration", 2 ** EXHAUSTIVE_LIMIT) from None
        elems, sentence, colors = _instance(t, EXPORT_VALUE_CEILING)
        spec = LargenessSpec(n, 1, sentence)
        checked = 0
        for size in range(1, len(elems) + 1):
            for sub in combinations(elems.elements, size):
                budget.tick()
                checked += 1
                if len({colors[v] for v in sub}) != 1:
                    continue
                if check_large(FinSet(sub), spec, budget=budget) is not None:
                    return LowerBoundReport(
                        COUNTEREXAMPLE, True, checked, witness=FinSet(sub)
                    )
        return LowerBoundReport(CONFIRMED, True, checked)

    return _verify_pruned(t, n, budget)


def _class_check(
    t, n: int, budget: Budget, ceiling: int = EXPORT_VALUE_CEILING
) -> tuple[str, Optional[FinSet]]:
    """Complete check through the parity classes (see large_color_class);
    SizeOverflow, before any work, when t's table passes the ceiling."""
    elems, sentence, colors = _instance(t, ceiling)
    found = large_color_class(elems, colors.__getitem__, LargenessSpec(n, 1, sentence), budget)
    return (CONFIRMED, None) if found is None else (COUNTEREXAMPLE, found[1])


PRUNED_SUB_CEILING = 128


def _verify_pruned(t, n: int, budget: Budget) -> LowerBoundReport:
    try:
        status, witness = _class_check(t, n, budget)
    except SizeOverflow:
        pass
    else:
        return LowerBoundReport(status, True, sub_instances=1, witness=witness)
    # oversize: any offending subset would reduce, block by block, to an
    # offending subset of some block two levels down (or of the blockfree
    # variant); verify the reachable ones and report consistency only
    if isinstance(t, BlockfreeView):
        return LowerBoundReport(CONSISTENT, False, skipped=1, detail="view too large")
    done = skipped = 0
    first = None  # the first counterexample's witness

    def sub_instances():
        # grandchildren and blockfree variants, far as sizes allow; bases of
        # later siblings can themselves outgrow any budget.  Under rank 1
        # there are neither: the children are points, and none is visited
        if t.rank < 2:
            return
        try:
            for child in t.children():
                try:
                    for grand in child.children():
                        yield grand
                except SizeOverflow:
                    yield None
                if child.rank >= 1:
                    yield child.zero_blockfree()
        except SizeOverflow:
            yield None

    for sub in sub_instances():
        budget.tick()
        if sub is None:  # past a size overflow
            skipped += 1
            continue
        try:
            # each has rank t.rank - 2, odd as t.rank is
            _, witness = _class_check(sub, (sub.rank + 1) // 2, budget, PRUNED_SUB_CEILING)
        except SizeOverflow:  # its table does not fit
            skipped += 1
            continue
        done += 1
        first = witness if first is None else first  # None but on a counterexample
        if done + skipped > 64:
            break
    if first is not None:
        return LowerBoundReport(
            COUNTEREXAMPLE, False, sub_instances=done, skipped=skipped, witness=first,
            detail="a sub-instance violates the claim",
        )
    return LowerBoundReport(
        CONSISTENT, False, sub_instances=done, skipped=skipped,
        detail="all reachable sub-instances confirmed; larger blocks unexplored",
    )
