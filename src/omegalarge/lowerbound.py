"""Symbolic minimal large intervals: canonical blocks, the separation
sentence they induce, the parity coloring, and the lower-bound verifier.

A minimal large interval decomposes uniquely: head element, then head-many
minimal blocks one exponent down.  Trees here never materialize unless
asked with a budget; sizes come from exact recurrences, so oversize
instances fail fast.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    minimal_interval_card,
)
from .sets import FinSet

DEFAULT_SIZE_CAP = 10 ** 7
EXPORT_VALUE_CEILING = 256


@dataclass(frozen=True)
class BlockAddress:
    """Child-index path from the root to one canonical block."""

    path: tuple[int, ...]
    level: int


class CanonicalTree:
    """The minimal interval large at `rank` above `base`, symbolically.

    Children are generated on demand, left to right; each child's base is
    the previous child's maximum plus one.  All sizes are exact integers
    guarded by a cap.
    """

    def __init__(self, base: int, rank: int):
        if base < 3:
            raise PreconditionError("base must be at least 3")
        self.base = base
        self.rank = rank
        self._child_bases: list[int] = [base + 1] if rank >= 1 else []
        self._children: dict[int, CanonicalTree] = {}
        self._addr: dict[tuple[int, int], Optional[BlockAddress]] = {}
        self._exports: dict[int, Pi03Sentence] = {}

    def __repr__(self) -> str:
        return f"CanonicalTree(base={self.base}, rank={self.rank})"

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
        if i in self._children:
            return self._children[i]
        while len(self._child_bases) <= i:
            prev = self.child(len(self._child_bases) - 1)
            self._child_bases.append(prev.max_value() + 1)
        node = CanonicalTree(self._child_bases[i], self.rank - 1)
        self._children[i] = node
        return node

    def children(self) -> Iterator["CanonicalTree"]:
        for i in range(self.child_count):
            yield self.child(i)

    # -- membership and navigation (the set is a contiguous interval) -----

    def contains(self, v: int) -> bool:
        if v < self.base:
            return False
        try:
            return v <= self.max_value(cap=max(v - self.base + 1, 1))
        except SizeOverflow:
            return True  # the interval provably extends past v

    def _child_index_containing(self, v: int) -> Optional[int]:
        for i in range(self.child_count):
            node = self.child(i)
            if v < node.base:
                return None
            try:
                top = node.max_value(cap=max(v - node.base + 1, 1))
            except SizeOverflow:
                return i
            if v <= top:
                return i
        return None

    def block_of(self, v: int, c: int) -> Optional[BlockAddress]:
        """Address of the canonical c-block containing v, if any.

        Block minima live only at their own level: the head of a block at
        level r belongs to no block below r.
        """
        key = (v, c)
        if key in self._addr:
            return self._addr[key]
        out: Optional[BlockAddress] = None
        if c <= self.rank and self.contains(v):
            node, path = self, []
            while node.rank > c:
                if v == node.base:
                    break
                i = node._child_index_containing(v)
                if i is None:
                    break
                path.append(i)
                node = node.child(i)
            else:
                out = BlockAddress(tuple(path), c)
        self._addr[key] = out
        return out

    def node_rank_of(self, v: int) -> int:
        """The level whose block has v as its minimum."""
        if not self.contains(v):
            raise PreconditionError(f"{v} is not in the set")
        node = self
        while v != node.base:
            i = node._child_index_containing(v)
            if i is None:
                raise RuntimeError(f"{v} lies in the set but in no child of {node!r}")
            node = node.child(i)
        return node.rank

    # -- the induced predicates -------------------------------------------

    def same_block(self, x: int, y: int, c: int) -> bool:
        a = self.block_of(x, c)
        return a is not None and a == self.block_of(y, c)

    def separates(self, x: int, y: int, z: int) -> bool:
        """Membership-guarded separation: whenever x and z are in the set
        with z >= y, some level must group y with z but split x from y."""
        if not (self.contains(x) and self.contains(z) and z >= y):
            return True
        if not (y > x and self.contains(y)):
            return False
        return any(
            self.same_block(y, z, c) and not self.same_block(x, y, c)
            for c in range(self.rank + 1)
        )

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

    # -- materialization and export ----------------------------------------

    def materialize(self, budget: int = DEFAULT_SIZE_CAP) -> FinSet:
        card = self.cardinality(cap=budget)
        return FinSet.interval(self.base, self.base + card - 1)

    def export_sentence(self, ceiling: int = EXPORT_VALUE_CEILING) -> Pi03Sentence:
        """The separation sentence as a formula over a tabulated parameter.

        The full triple table below bound B = max + 1 is coded into A and
        read back by the indexing term x*B^2 + y*B + z; exact for all
        triples below B, which covers every apartness query on subsets.
        Beyond the ceiling use the structural operations instead.
        """
        if ceiling not in self._exports:
            members = self.materialize(budget=ceiling).elements
            self._exports[ceiling] = _tabulated_sentence(self, members, ceiling)
        return self._exports[ceiling]

    def zero_blockfree(self) -> "BlockfreeView":
        if self.rank < 1:
            raise PreconditionError("rank must be at least 1")
        return BlockfreeView(self, 1)


def _tabulated_sentence(owner, members: tuple[int, ...], ceiling: int) -> Pi03Sentence:
    """Code the separation predicate below bound = max + 2 into A.

    The indexing term reads the table at the successor of each argument:
    under the strictly bounded apartness evaluation this realizes inclusive
    bounds, which is what the boundary-triple shortcut is equivalent to
    (the strict reading loses only vacuous or never-witness edge points).

    Triples whose antecedent fails (x or z outside the set, or z < y) are
    true; each member pair (x, z) fills its column of y <= z at once.  As a
    bitmask over y, the column is the union over levels c of z's c-block
    minus x's c-block, cut to x < y <= z.
    """
    bound = members[-1] + 2
    if bound > ceiling:
        raise SizeOverflow("export table bound", ceiling)
    addrs = [(v, [owner.block_of(v, c) for c in range(owner.rank + 1)]) for v in members]
    block_mask: dict[BlockAddress, int] = {}  # an address carries its level
    for v, row in addrs:
        for a in row:
            if a is not None:
                block_mask[a] = block_mask.get(a, 0) | (1 << v)
    # each member's block at every level as a mask; 0 where it has none
    level_masks = [(v, tuple(block_mask.get(a, 0) for a in row)) for v, row in addrs]
    bits = bytearray(b"1" * (bound ** 3))
    for x, mx in level_masks:
        xb = x * bound * bound
        above_x = -(2 << x)  # bits y > x
        for z, mz in level_masks:
            col = 0
            for in_z, in_x in zip(mz, mx):
                col |= in_z & ~in_x
            col &= above_x & ((2 << z) - 1)
            # entry (x, y, z) sits at xb + y*bound + z, for y = 0..z
            bits[xb + z: xb + z + (z + 1) * bound: bound] = format(col, f"0{z + 1}b")[::-1].encode()
    shift = bound * bound + bound + 1  # move (x, y, z) to (x+1, y+1, z+1)
    term = TAdd(
        TAdd(TMul(TVar("x"), TConst(bound * bound)), TMul(TVar("y"), TConst(bound))),
        TAdd(TVar("z"), TConst(shift)),
    )
    return Pi03Sentence(FIn(term), 0, SecondOrderParam(bits.decode()))


def tree(base: int, rank: int) -> CanonicalTree:
    return CanonicalTree(base, rank)


class BlockfreeView:
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

    @property
    def minimum(self) -> int:
        return self.tree.base

    def contains(self, v: int) -> bool:
        return self.tree.contains(v) and self.tree.node_rank_of(v) >= self.depth

    def zero_blockfree(self) -> "BlockfreeView":
        if self.rank < 1:
            raise PreconditionError("rank must be at least 1")
        return BlockfreeView(self.tree, self.depth + 1)

    def iter_elements(self, budget: int = DEFAULT_SIZE_CAP) -> Iterator[int]:
        count = 0

        def walk(node: CanonicalTree) -> Iterator[int]:
            nonlocal count
            if node.rank < self.depth:
                return
            count += 1
            if count > budget:
                raise SizeOverflow("view iteration", budget)
            yield node.base
            if node.rank > self.depth:
                for child in node.children():
                    yield from walk(child)

        # bases are discovered depth-first but emitted in increasing order
        yield from sorted(walk(self.tree))

    def to_finset(self, budget: int = DEFAULT_SIZE_CAP) -> FinSet:
        return FinSet(tuple(self.iter_elements(budget)))

    def block_of(self, v: int, c: int) -> Optional[BlockAddress]:
        """Blocks of the view at level c are level c+depth blocks of the
        tree, restricted to surviving elements."""
        if not self.contains(v) or c > self.rank:
            return None
        return self.tree.block_of(v, c + self.depth)

    def same_block(self, x: int, y: int, c: int) -> bool:
        if not (self.contains(x) and self.contains(y)) or c > self.rank:
            return False
        return self.tree.same_block(x, y, c + self.depth)

    # the tree's body reads only contains, same_block and rank, all redefined here
    separates = CanonicalTree.separates

    def parity_color(self, v: int) -> int:
        if not self.contains(v):
            raise PreconditionError(f"{v} is not in the view")
        return (self.tree.node_rank_of(v) - self.depth) % 2

    def export_sentence(self, ceiling: int = EXPORT_VALUE_CEILING) -> Pi03Sentence:
        members = self.to_finset(budget=ceiling).elements
        return _tabulated_sentence(self, members, ceiling)


# ---------------------------------------------------------------------------
# Lower-bound verification
# ---------------------------------------------------------------------------

CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
CONSISTENT = "consistent"

EXHAUSTIVE_LIMIT = 16  # elements; beyond this the 2^N enumeration is refused


@dataclass
class LowerBoundReport:
    status: str
    complete: bool
    checked_subsets: int = 0
    sub_instances: int = 0
    skipped: int = 0
    witness: Optional[FinSet] = None
    detail: str = ""


def _instance(
    tree_or_view, ceiling: int = EXPORT_VALUE_CEILING
) -> tuple[FinSet, Pi03Sentence, dict[int, int]]:
    if isinstance(tree_or_view, CanonicalTree):
        elems = tree_or_view.materialize(budget=ceiling)
    else:
        elems = tree_or_view.to_finset(budget=ceiling)
    sentence = tree_or_view.export_sentence(ceiling)
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
        elems, sentence, colors = _instance(t)
        if len(elems) > EXHAUSTIVE_LIMIT:
            raise SizeOverflow("exhaustive subset enumeration", 2 ** EXHAUSTIVE_LIMIT)
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
    """Complete check via color classes: a homogeneous large subset exists
    iff one whole class is large, by closure under supersets."""
    elems, sentence, colors = _instance(t, ceiling)
    spec = LargenessSpec(n, 1, sentence)
    for c in (0, 1):
        cls = FinSet(tuple(v for v in elems if colors[v] == c))
        if cls.elements and check_large(cls, spec, budget=budget) is not None:
            return COUNTEREXAMPLE, cls
    return CONFIRMED, None


def _exportable(node, ceiling: int) -> bool:
    try:
        if isinstance(node, CanonicalTree):
            return node.max_value(cap=ceiling) + 1 <= ceiling
        fs = node.to_finset(budget=ceiling)
        return bool(fs.elements) and fs.maximum + 1 <= ceiling
    except SizeOverflow:
        return False


PRUNED_SUB_CEILING = 128


def _verify_pruned(t, n: int, budget: Budget) -> LowerBoundReport:
    if _exportable(t, EXPORT_VALUE_CEILING):
        status, witness = _class_check(t, n, budget)
        return LowerBoundReport(status, True, sub_instances=1, witness=witness)
    # oversize: any offending subset would reduce, block by block, to an
    # offending subset of some block two levels down (or of the blockfree
    # variant); verify the reachable ones and report consistency only
    if isinstance(t, BlockfreeView):
        return LowerBoundReport(CONSISTENT, False, skipped=1, detail="view too large")
    done = skipped = 0
    witnesses = []

    def sub_instances():
        # grandchildren and blockfree variants, far as sizes allow; bases of
        # later siblings can themselves outgrow any budget
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
        if sub is None or not _exportable(sub, PRUNED_SUB_CEILING):
            skipped += 1
            continue
        if sub.rank % 2 != 1:
            continue
        status, witness = _class_check(sub, (sub.rank + 1) // 2, budget, PRUNED_SUB_CEILING)
        done += 1
        if status == COUNTEREXAMPLE:
            witnesses.append(witness)
        if done + skipped > 64:
            break
    if witnesses:
        return LowerBoundReport(
            COUNTEREXAMPLE, False, sub_instances=done, skipped=skipped, witness=witnesses[0],
            detail="a sub-instance violates the claim",
        )
    return LowerBoundReport(
        CONSISTENT, False, sub_instances=done, skipped=skipped,
        detail="all reachable sub-instances confirmed; larger blocks unexplored",
    )
