"""Independent brute-force oracles used by the test suite.

Everything here re-derives answers straight from the definitions, sharing
no search logic with the package: largeness by enumerating block
decompositions over all subsets, formulas by ground substitution.  The
exceptions are replaced code kept as the reference for what replaced it:
the recursive grouping walk, the generator minimal walk, the product-loop
cross-monochromaticity scan, the recursive include-first subset search, the blockfree view's own copy
of the separation test and its collect-and-sort member walk, the per-triple
and per-column export tables, the closure compiler, the recursive printer and renamer
and the one-method-per-operator parser for formulas, Γ-largeness and density clauses (a) and (c) over every
coloring in `product` order, fusion's level-by-level assembly, and the
coloring table's per-entry range check, per-row offsets and per-tuple
restriction.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations, product
from math import comb, inf

from omegalarge import formula as fm
from omegalarge import grouping, ramsey
from omegalarge.largeness import (
    Block,
    Certificate,
    LargenessSpec,
    Node,
    SizeOverflow,
    check_large,
    least_card,
    shift_cert,
    t_apart,
)
from omegalarge.ramsey import FALSE, INCONCLUSIVE, TRUE, Verdict
from omegalarge.sets import ColoringTable, FinSet

# ---------------------------------------------------------------------------
# Plain largeness by exhaustive decomposition enumeration (bitmask form)
# ---------------------------------------------------------------------------


class BruteForcePlain:
    """Decides largeness with no apartness constraint over one universe.

    Blocks are enumerated as arbitrary subsets (bitmasks over the universe).
    The only shortcuts are single unfoldings of the definition itself:
    a set is large at exponent 1 iff it has at least min+1 elements, and
    k blocks at exponent 0 exist iff the pool has at least k elements.
    """

    def __init__(self, universe: tuple[int, ...]):
        self.universe = universe
        self._single: dict[tuple[int, int], bool] = {}
        self._multi: dict[tuple[int, int, int], bool] = {}

    def _low_value(self, mask: int) -> int:
        return self.universe[(mask & -mask).bit_length() - 1]

    def _above_msb(self, mask: int, full: int) -> int:
        return full & ~((1 << mask.bit_length()) - 1)

    def single(self, mask: int, n: int) -> bool:
        if mask == 0:
            return False
        if n == 0:
            return True
        if n == 1:
            return mask.bit_count() >= self._low_value(mask) + 1
        key = (mask, n)
        hit = self._single.get(key)
        if hit is None:
            low = self._low_value(mask)
            hit = self.multi(mask & (mask - 1), n - 1, low)
            self._single[key] = hit
        return hit

    def multi(self, mask: int, n: int, k: int) -> bool:
        if k == 0:
            return True
        if n == 0:
            return mask.bit_count() >= k
        key = (mask, n, k)
        hit = self._multi.get(key)
        if hit is not None:
            return hit
        hit = False
        sub = mask
        while sub:
            if self.single(sub, n) and self.multi(self._above_msb(sub, mask), n, k - 1):
                hit = True
                break
            sub = (sub - 1) & mask
        self._multi[key] = hit
        return hit

    def mask_of(self, values) -> int:
        pos = {v: i for i, v in enumerate(self.universe)}
        m = 0
        for v in values:
            m |= 1 << pos[v]
        return m

    def is_large(self, values, n: int, k: int) -> bool:
        return self.multi(self.mask_of(values), n, k)


def interval_is_large(lo: int, hi: int, n: int, k: int, memo: dict) -> bool:
    """Is the interval [lo, hi) large at omega^n * k?  Straight from the
    definition, with no size recurrence: it splits into k consecutive runs,
    each large at omega^n, and a run [a, b) is large at omega^(n+1) iff
    [a+1, b) is large at omega^n * a.  memo is keyed by (lo, hi, n, k).

    Unlike BruteForcePlain, whose subset enumeration stops at a few dozen
    elements, this decides intervals of any length the memo can hold."""
    if k == 0:
        return True
    if n == 0:
        return hi - lo >= k
    key = (lo, hi, n, k)
    if key not in memo:
        memo[key] = any(
            interval_is_large(lo + 1, s, n - 1, lo, memo) and interval_is_large(s, hi, n, k - 1, memo)
            for s in range(lo + 1, hi + 1)
        )
    return memo[key]


# ---------------------------------------------------------------------------
# Largeness under an apartness sentence, tiny sets only
# ---------------------------------------------------------------------------


def holds_bounded_literal(sentence, x_bound: int, y_bound: int, z_bound: int) -> bool:
    """forall x < x_bound exists y < y_bound forall z < z_bound theta, by
    the triple loop over `theta_at` with no memo."""
    for x in range(x_bound):
        if not any(
            all(sentence.theta_at(x, y, z) for z in range(z_bound))
            for y in range(y_bound)
        ):
            return False
    return True


def _apart_literal(left: tuple[int, ...], right: tuple[int, ...], sentence) -> bool:
    # forall v < max(left) exists w < min(right) forall u < max(right) theta
    return holds_bounded_literal(sentence, left[-1], right[0], right[-1])


def bf_large_t(values: tuple[int, ...], n: int, k: int, sentence) -> bool:
    """Exhaustive over all block families with all-pairs apartness."""

    def single(vals: tuple[int, ...], n: int) -> bool:
        if not vals:
            return False
        if n == 0:
            return True
        return multi(vals[1:], n - 1, vals[0])

    def multi(pool: tuple[int, ...], n: int, k: int) -> bool:
        def rec(pool: tuple[int, ...], chosen: list[tuple[int, ...]]) -> bool:
            if len(chosen) == k:
                return all(
                    _apart_literal(chosen[i], chosen[j], sentence)
                    for i in range(k)
                    for j in range(i + 1, k)
                )
            for size in range(1, len(pool) + 1):
                for block in combinations(pool, size):
                    if not single(block, n):
                        continue
                    rest = tuple(v for v in pool if v > block[-1])
                    chosen.append(block)
                    if rec(rest, chosen):
                        chosen.pop()
                        return True
                    chosen.pop()
            return False

        if k == 0:
            return True
        return rec(pool, [])

    return multi(values, n, k)


# ---------------------------------------------------------------------------
# Decomposition enumeration (for uniqueness checks on minimal sets)
# ---------------------------------------------------------------------------


def _min_card_chain(v: int, n: int, cap: int) -> int:
    if n == 0:
        return 1
    total = 1
    nxt = v + 1
    for _ in range(v):
        c = _min_card_chain(nxt, n - 1, cap)
        total += c
        nxt += c
        if total > cap:
            return cap + 1
    return total


def plain_decompositions(values: tuple[int, ...], n: int, limit: int = 16):
    """All decompositions of `values` at exponent n: families of at least
    min-many blocks large at exponent n-1, drawn from values minus min.

    Blocks are arbitrary subsets, grown element by element; branches are cut
    only when even the cheapest completion of the family cannot fit in the
    remaining elements (a count argument straight from the definition).
    """
    assert n >= 1
    head, pool = values[0], values[1:]
    found: list[tuple[tuple[int, ...], ...]] = []

    def single(vals: tuple[int, ...]) -> bool:
        if not vals:
            return False
        if n - 1 == 0:
            return True
        u = BruteForcePlain(vals)
        return u.is_large(vals, n - 1, 1)

    def chain_fits(first: int, count: int, available: int) -> bool:
        """Can `count` blocks, the first with min >= first, fit in
        `available` elements?  Uses the minimal-cardinality chain."""
        need, v = 0, first
        for _ in range(count):
            c = _min_card_chain(v, n - 1, available + 1)
            need += c
            v += c
            if need > available:
                return False
        return True

    def after(idx: int) -> int:
        return len(pool) - idx  # elements at positions >= idx

    def rec(start: int, blocks: list[tuple[int, ...]]) -> None:
        if len(found) >= limit:
            return
        if len(blocks) >= head:
            found.append(tuple(blocks))
        rest = head - len(blocks)
        if rest > 0 and (start >= len(pool) or not chain_fits(pool[start], rest, after(start))):
            return
        for s in range(start, len(pool)):
            if rest > 0 and not chain_fits(pool[s], rest, after(s)):
                break  # later starts only get worse
            grow(s, s + 1, [pool[s]], blocks)

    def grow(s: int, nxt: int, current: list[int], blocks: list[tuple[int, ...]]) -> None:
        """Extend the block starting at pool[s]; try closing, then extending."""
        if len(found) >= limit:
            return
        still = head - len(blocks) - 1
        # cheapest completion: fill the block up to its required size with
        # the next consecutive elements, then chain the remaining blocks
        required = _min_card_chain(current[0], n - 1, len(pool) + 1)
        missing = max(0, required - len(current))
        close_at = nxt + missing
        if close_at > len(pool):
            return
        if still > 0:
            if close_at >= len(pool):
                return
            if not chain_fits(pool[close_at], still, after(close_at)):
                return
        if missing == 0 and single(tuple(current)):
            blocks.append(tuple(current))
            rec(nxt, blocks)
            blocks.pop()
        for j in range(nxt, len(pool)):
            current.append(pool[j])
            grow(s, j + 1, current, blocks)
            current.pop()

    rec(0, [])
    return found


# ---------------------------------------------------------------------------
# The recursive grouping walk that GroupingWalk's explicit stack replaced
# ---------------------------------------------------------------------------


def recursive_grouping_witnesses(walk, minimal=False):
    """Witnesses of a GroupingWalk's full walk (or, with `minimal`, of
    its minimal walk, which never extends a block that may close), visited
    by plain generator recursion.

    This is the walk as it was before it kept its own stack, with the
    block checks it had then: a block closes when it satisfies l0 and is
    apart from the last closed block, asked afresh with t_apart.  It reuses
    the walk's cross-monochromaticity and witness tests, so only the
    traversal and the apartness bookkeeping are compared.  Its depth grows
    with the set, so it suits small sets only.
    """
    elems = walk.z.elements
    sentence = walk.sentence

    def may_close(blocks, current):
        if check_large(FinSet(tuple(current)), walk.l0) is None:
            return False
        return not blocks or t_apart(FinSet(blocks[-1]), FinSet(tuple(current)), sentence)

    def apart_start_ok(blocks, v):
        return not blocks or sentence.holds_bounded(blocks[-1][-1], v, v)

    def apart_extension_ok(blocks, current, v):
        return not blocks or sentence.holds_bounded(blocks[-1][-1], current[0], v)

    def rec(i, blocks, current, cur_cross, fresh):
        walk.budget.tick()
        if walk.min_blocks is not None:
            open_now = 1 if current else 0
            if len(blocks) + open_now + (len(elems) - i) < walk.min_blocks:
                return
        closeable = None
        if fresh:
            candidate = list(blocks)
            if current:
                closeable = may_close(blocks, current)
                candidate = blocks + [tuple(current)] if closeable else None
            if candidate is not None:
                w = walk._hit(candidate)
                if w is not None:
                    yield w
        if i == len(elems):
            return
        v = elems[i]
        base, ok = blocks, True
        if current:
            if closeable is None:
                closeable = may_close(blocks, current)
            if closeable:
                base = blocks + [tuple(current)]
            else:
                ok = False
        if ok:
            cross = walk._cross_ok(base, v, None)
            if cross is not None and apart_start_ok(base, v):
                yield from rec(i + 1, base, [v], cross, True)
        if current and not (minimal and closeable):
            cross = walk._cross_ok(blocks, v, cur_cross)
            if cross is not None and apart_extension_ok(blocks, current, v):
                current.append(v)
                yield from rec(i + 1, blocks, current, cross, True)
                current.pop()
        yield from rec(i + 1, blocks, current, cur_cross, False)

    if walk.min_blocks is not None and walk.min_blocks > len(elems):
        return
    yield from rec(0, [], [], None, False)


# ---------------------------------------------------------------------------
# The generator minimal walk that GroupingWalk.first_minimal's frames replaced
# ---------------------------------------------------------------------------


def generator_minimal_witnesses(walk):
    """Witnesses of a GroupingWalk's minimal walk, in order, as the walk
    found them before `first_minimal` kept a list of frames: one generator
    per node and its skip chain, driven by a stack of generators.  Each
    node yields its witness, if it tests one, then the arguments of the
    child of each chain position that passes the cross and apartness
    checks, ticking one step for that position past the node's own.  It
    reuses the walk's witness test, cross check and extension check, and
    asks and keeps the starts' apartness itself, so only the traversal,
    its `dead` table and its budget ticks are compared.
    """
    elems = walk.z.elements
    if walk.min_blocks > len(elems):
        return
    dead = [inf] * len(elems)

    def start(closed, p):
        v = elems[p]
        cross = walk._cross_ok(closed, v, None)
        if cross is None or not closed or walk.sentence.holds_bounded(closed[-1][-1], v, v):
            return cross
        dead[p] = closed[-1][-1]
        return None

    def node(i, blocks, current, cur_cross, fresh):
        walk.budget.tick()
        left = len(elems) - i
        need = walk.min_blocks - len(blocks) - (1 if current else 0)
        if current:
            available = len(elems) - bisect_left(elems, current[0])
            least = least_card(current[0], walk.l0.exponent, walk.l0.multiplier, available)
            need = max(need, least - len(current))
        if left < need:
            return
        closeable = not current or ((fresh or left > 0) and grouping._holds(walk.l0, current))
        closed = blocks + (current,) if current and closeable else blocks
        if fresh and closeable:
            w = walk._hit(closed)
            if w is not None:
                yield w
        if left == 0:
            return
        m = closed[-1][-1] if closeable and closed else -1
        for p in range(i, min(len(elems), len(elems) + 1 - need)):
            if closeable:
                if m < dead[p] and (cross := start(closed, p)) is not None:
                    if p > i:
                        walk.budget.tick()
                    yield p + 1, closed, (elems[p],), cross, True
            elif (cross := walk._extension(blocks, current, cur_cross, p)) is not None:
                if p > i:
                    walk.budget.tick()
                yield p + 1, blocks, current + (elems[p],), cross, True

    stack = [node(0, (), (), None, False)]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif isinstance(item, grouping.GroupingWitness):
            yield item
        else:
            stack.append(node(*item))


def all_pairs_apart(blocks, sentence) -> bool:
    """The apartness condition as is_grouping asked it before it read
    consecutive blocks only: every pair of blocks, in order."""
    return all(t_apart(x, y, sentence) for i, x in enumerate(blocks) for y in blocks[i + 1:])


def product_cross_monochromatic(blocks, f) -> bool:
    """The cross-monochromaticity scan that is_grouping's direct scan over
    block pairs replaced: every arity-sized choice of blocks, in
    `combinations` order, is one color on the `product` of its blocks."""
    for picks in combinations(range(len(blocks)), f.arity):
        seen = None
        for combo in product(*(blocks[i].elements for i in picks)):
            c = f(*combo)
            if seen is None:
                seen = c
            elif c != seen:
                return False
    return True


# ---------------------------------------------------------------------------
# The recursive subset search that _include_first_dfs's explicit stack replaced
# ---------------------------------------------------------------------------


def recursive_include_first_dfs(elems, budget, compatible, accept, bound_ok, anchor):
    """Drop-in for grouping._include_first_dfs, by plain recursion.  Its
    depth grows with the number of skipped elements, so it suits small
    sets only."""

    def dfs(i, chosen):
        budget.tick()
        if chosen and (anchor is None or chosen[0] == anchor):
            cert = accept(chosen)
            if cert is not None:
                return chosen, cert
        if i == len(elems) or not bound_ok(chosen, i):
            return None
        v = elems[i]
        if (anchor is None or chosen or v == anchor) and compatible(chosen, v):
            out = dfs(i + 1, chosen + (v,))
            if out is not None:
                return out
        if anchor is not None and not chosen and v == anchor:
            return None  # anchored searches must include the anchor first
        return dfs(i + 1, chosen)

    return dfs(0, ())


# ---------------------------------------------------------------------------
# Coloring tables as ColoringTable built and restricted them entry by entry
# ---------------------------------------------------------------------------


def per_entry_color_check(table, colors: int) -> None:
    """The range check ColoringTable's distinct-color check replaced:
    every entry in table order, the first one out of range named."""
    for c in table:
        if not 0 <= c < colors:
            raise ValueError(f"color {c} out of range 0..{colors - 1}")


def generator_row_offsets(n: int) -> tuple[int, ...]:
    """The pair row offsets as the per-row generator computed them: pair
    (i, j) sits at rank i*(2n-i-1)/2 + j-i-1, the row offset plus j."""
    return tuple(i * (2 * n - i - 1) // 2 - i - 1 for i in range(n))


def per_tuple_restrict_coloring(f, g):
    """restrict_coloring as one lookup of f per tuple of g, before it read
    f's table by position."""
    elems = g.elements
    try:
        table = tuple(f(*(elems[i] for i in idx)) for idx in combinations(range(len(g)), f.arity))
    except KeyError as err:
        raise ValueError(f"restriction target is not a subset of the coloring domain: {err}") from None
    return ColoringTable(FinSet(tuple(range(len(g)))), f.arity, f.colors, table)


# ---------------------------------------------------------------------------
# Transitivity by relation composition
# ---------------------------------------------------------------------------


def bf_transitive(f, elements) -> bool:
    """Each color class {(a, b) : a < b, f(a, b) = c} is a transitive
    relation: composing it with itself stays inside it."""
    pairs = list(combinations(sorted(elements), 2))
    for c in set(f(a, b) for a, b in pairs):
        rel = {(a, b) for a, b in pairs if f(a, b) == c}
        if any((a, d) not in rel for a, b in rel for b2, d in rel if b == b2):
            return False
    return True


# ---------------------------------------------------------------------------
# BlockfreeView.separates as it was before it shared the tree's body
# ---------------------------------------------------------------------------


def blockfree_separates(view, x: int, y: int, z: int) -> bool:
    if not (view.contains(x) and view.contains(z) and z >= y):
        return True
    if not (y > x and view.contains(y)):
        return False
    return any(
        view.same_block(y, z, c) and not view.same_block(x, y, c)
        for c in range(view.rank + 1)
    )


def sorted_view_members(view, budget: int) -> list[int]:
    """The blockfree view's members as its walk read them before it yielded
    them in walk order: every base collected depth-first, then sorted."""
    bases: list[int] = []
    stack = [iter((view.tree,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        if len(bases) >= budget:
            raise SizeOverflow("view iteration", budget)
        bases.append(node.base)
        if node.rank > view.depth:
            stack.append(node.children())
    return sorted(bases)


# ---------------------------------------------------------------------------
# Canonical-tree navigation as it was before the memoized child-index
# paths: every question descends from the root again
# ---------------------------------------------------------------------------


def _descent_child_index(node, v: int):
    for i in range(node.child_count):
        child = node.child(i)
        if v < child.base:
            return None
        try:
            top = child.max_value(cap=max(v - child.base + 1, 1))
        except SizeOverflow:
            return i
        if v <= top:
            return i
    return None


class DescentNavigation:
    """contains, block_of, node_rank_of, same_block and parity_color of the
    tree `t` (depth 0) or of its blockfree view at `depth`, read off `t`'s
    children and sizes only."""

    def __init__(self, t, depth: int = 0):
        self.t, self.depth, self.rank = t, depth, t.rank - depth

    def _in_interval(self, v: int) -> bool:
        t = self.t
        if v < t.base:
            return False
        try:
            return v <= t.max_value(cap=max(v - t.base + 1, 1))
        except SizeOverflow:
            return True

    def _tree_node_rank(self, v: int) -> int:
        node = self.t
        while v != node.base:
            i = _descent_child_index(node, v)
            if i is None:
                raise RuntimeError(f"{v} lies in the set but in no child of {node!r}")
            node = node.child(i)
        return node.rank

    def _tree_block_of(self, v: int, c: int):
        if c > self.t.rank or not self._in_interval(v):
            return None
        node, path = self.t, []
        while node.rank > c:
            if v == node.base:
                return None
            i = _descent_child_index(node, v)
            if i is None:
                return None
            path.append(i)
            node = node.child(i)
        return (tuple(path), c)

    def path(self, v: int):
        """v's child-index path in the tree, or None outside the interval."""
        if not self._in_interval(v):
            return None
        return self._tree_block_of(v, self._tree_node_rank(v))[0]

    def contains(self, v: int) -> bool:
        return self._in_interval(v) and self._tree_node_rank(v) >= self.depth

    def node_rank_of(self, v: int) -> int:
        if not self.contains(v):
            raise ValueError(f"{v} is not in the set")
        return self._tree_node_rank(v) - self.depth

    def block_of(self, v: int, c: int):
        """(path, tree level) of v's block at view level c, or None."""
        if c > self.rank or not self.contains(v):
            return None
        return self._tree_block_of(v, c + self.depth)

    def same_block(self, x: int, y: int, c: int) -> bool:
        a = self.block_of(x, c)
        return a is not None and a == self.block_of(y, c)

    def parity_color(self, v: int) -> int:
        return self.node_rank_of(v) % 2


# ---------------------------------------------------------------------------
# The export table as it was built before the per-x planes: first one level
# scan per triple, then one bitmask column over y per member pair (x, z)
# ---------------------------------------------------------------------------


def per_triple_separation_bits(owner, ceiling: int) -> str:
    """The bits of `owner.export_sentence(ceiling)`'s parameter A, filled
    triple by triple; raises SizeOverflow where the export does."""
    members = owner.materialize(budget=ceiling).elements
    bound = members[-1] + 2
    if bound > ceiling:
        raise SizeOverflow("export table bound", ceiling)
    levels = range(owner.rank + 1)
    addr = {v: tuple(owner.block_of(v, c) for c in levels) for v in members}
    bits = bytearray(b"1" * (bound ** 3))
    member_set = set(members)
    for x in members:
        ax = addr[x]
        xb = x * bound * bound
        for z in members:
            az = addr[z]
            base_idx = xb + z
            for y in range(z + 1):
                if y > x and y in member_set:
                    ay = addr[y]
                    ok = any(
                        ay[c] is not None and ay[c] == az[c] and ax[c] != ay[c]
                        for c in levels
                    )
                else:
                    ok = False
                if not ok:
                    bits[base_idx + y * bound] = ord("0")
    return bits.decode()


def column_separation_bits(owner, bound: int) -> str:
    """The bits of `owner`'s export table below `bound`, filled one member
    pair at a time: triples whose antecedent fails (x or z outside the set,
    or z < y) are true, and the column of y <= z for members x and z is the
    union over levels c of z's c-block minus x's c-block, cut to
    x < y <= z."""
    members = owner.materialize(budget=bound).elements
    addrs = [(v, [owner.block_of(v, c) for c in range(owner.rank + 1)]) for v in members]
    block_mask = {}  # an address carries its level
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
    return bits.decode()


def table_instance(tree_or_view, ceiling: int):
    """The lower-bound instance as `verify_lower_bound` read it before the
    structural separation sentence: the members, the exported bit-table
    sentence and the parity colors."""
    elems = tree_or_view.materialize(budget=ceiling)
    sentence = tree_or_view.export_sentence(ceiling)
    colors = {v: tree_or_view.parity_color(v) for v in elems}
    return elems, sentence, colors


# ---------------------------------------------------------------------------
# Ground-substitution formula evaluator (independent of omegalarge.formula)
# ---------------------------------------------------------------------------


def naive_eval(phi, env: dict, a: int, bits: str) -> bool:
    """Evaluate by substituting numerals for variables, no environments."""

    def gterm(t, env):
        if isinstance(t, fm.TConst):
            return t.value
        if isinstance(t, fm.TConstA):
            return a
        if isinstance(t, fm.TVar):
            return env[t.name]
        if isinstance(t, fm.TAdd):
            return gterm(t.left, env) + gterm(t.right, env)
        if isinstance(t, fm.TMul):
            return gterm(t.left, env) * gterm(t.right, env)
        if isinstance(t, fm.TPow):
            return gterm(t.base, env) ** t.exponent
        raise TypeError(t)

    def go(phi, env):
        if isinstance(phi, fm.FTrue):
            return True
        if isinstance(phi, fm.FFalse):
            return False
        if isinstance(phi, fm.FCmp):
            l, r = gterm(phi.left, env), gterm(phi.right, env)
            return {"<": l < r, "=": l == r, "<=": l <= r}[phi.op]
        if isinstance(phi, fm.FIn):
            v = gterm(phi.term, env)
            return v < len(bits) and bits[v] == "1"
        if isinstance(phi, fm.FNot):
            return not go(phi.body, env)
        if isinstance(phi, fm.FAnd):
            return go(phi.left, env) and go(phi.right, env)
        if isinstance(phi, fm.FOr):
            return go(phi.left, env) or go(phi.right, env)
        if isinstance(phi, fm.FImp):
            return (not go(phi.left, env)) or go(phi.right, env)
        if isinstance(phi, fm.FQuant):
            bound = gterm(phi.bound, env)
            values = [go(phi.body, {**env, phi.var: v}) for v in range(bound)]
            return all(values) if phi.kind == "forall" else any(values)
        raise TypeError(phi)

    return go(phi, dict(env))


# ---------------------------------------------------------------------------
# The closure compiler that formula.compile_formula's generated code replaced
# ---------------------------------------------------------------------------


def closure_compile_formula(phi, variables, a: int, member):
    """What formula.compile_formula(phi, variables)(a, member) gives, as a
    tree of closures over a slot list: one Python call per AST node and
    evaluation, with `member` called in the same order."""
    slots = {name: i for i, name in enumerate(variables)}
    depth = [len(variables)]

    def comp_term(t, slots):
        if isinstance(t, fm.TConst):
            v = t.value
            return lambda env: v
        if isinstance(t, fm.TConstA):
            return lambda env: a
        if isinstance(t, fm.TVar):
            if t.name not in slots:
                raise fm.UncoveredVariable(f"variable {t.name!r} not covered")
            i = slots[t.name]
            return lambda env: env[i]
        if isinstance(t, fm.TAdd):
            l, r = comp_term(t.left, slots), comp_term(t.right, slots)
            return lambda env: l(env) + r(env)
        if isinstance(t, fm.TMul):
            l, r = comp_term(t.left, slots), comp_term(t.right, slots)
            return lambda env: l(env) * r(env)
        if isinstance(t, fm.TPow):
            b, e = comp_term(t.base, slots), t.exponent
            return lambda env: b(env) ** e
        raise TypeError(t)

    def comp(phi, slots):
        if isinstance(phi, fm.FTrue):
            return lambda env: True
        if isinstance(phi, fm.FFalse):
            return lambda env: False
        if isinstance(phi, fm.FCmp):
            l, r = comp_term(phi.left, slots), comp_term(phi.right, slots)
            if phi.op == "<":
                return lambda env: l(env) < r(env)
            if phi.op == "=":
                return lambda env: l(env) == r(env)
            return lambda env: l(env) <= r(env)
        if isinstance(phi, fm.FIn):
            t = comp_term(phi.term, slots)
            return lambda env: member(t(env))
        if isinstance(phi, fm.FNot):
            b = comp(phi.body, slots)
            return lambda env: not b(env)
        if isinstance(phi, fm.FAnd):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: l(env) and r(env)
        if isinstance(phi, fm.FOr):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: l(env) or r(env)
        if isinstance(phi, fm.FImp):
            l, r = comp(phi.left, slots), comp(phi.right, slots)
            return lambda env: (not l(env)) or r(env)
        if isinstance(phi, fm.FQuant):
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
    def count_quants(phi) -> int:
        if isinstance(phi, fm.FQuant):
            return 1 + count_quants(phi.body)
        if isinstance(phi, fm.FNot):
            return count_quants(phi.body)
        if isinstance(phi, (fm.FAnd, fm.FOr, fm.FImp)):
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
# The recursive printer and renamer that formula.formula_text and
# formula.rename_free replaced
# ---------------------------------------------------------------------------


def recursive_term_text(t) -> str:
    if isinstance(t, fm.TConst):
        return str(t.value)
    if isinstance(t, fm.TConstA):
        return "a"
    if isinstance(t, fm.TVar):
        return t.name
    if isinstance(t, fm.TAdd):
        # the parser is left-associative, so right-nested sums need parens
        right = recursive_term_text(t.right)
        if isinstance(t.right, fm.TAdd):
            right = f"({right})"
        return f"{recursive_term_text(t.left)} + {right}"
    if isinstance(t, fm.TMul):
        left = _factor_text(t.left)
        right = recursive_term_text(t.right)
        if isinstance(t.right, (fm.TAdd, fm.TMul)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(t, fm.TPow):
        return f"{_primary_text(t.base)} ^ {t.exponent}"
    raise TypeError(t)


def _factor_text(t) -> str:
    return f"({recursive_term_text(t)})" if isinstance(t, fm.TAdd) else recursive_term_text(t)


def _primary_text(t) -> str:
    return f"({recursive_term_text(t)})" if isinstance(t, (fm.TAdd, fm.TMul, fm.TPow)) else recursive_term_text(t)


def recursive_formula_text(phi) -> str:
    if isinstance(phi, fm.FTrue):
        return "true"
    if isinstance(phi, fm.FFalse):
        return "false"
    if isinstance(phi, fm.FCmp):
        return f"{recursive_term_text(phi.left)} {phi.op} {recursive_term_text(phi.right)}"
    if isinstance(phi, fm.FIn):
        return f"{recursive_term_text(phi.term)} in A"
    # a stack of `not`s and a left-nested `and` or `or` chain print in one
    # loop, so the printer goes as deep as the parser does
    if isinstance(phi, fm.FNot):
        count = 0
        while isinstance(phi, fm.FNot):
            phi, count = phi.body, count + 1
        return "not " * count + _unary_text(phi)
    if isinstance(phi, (fm.FAnd, fm.FOr)):
        kind, rights = type(phi), []
        while isinstance(phi, kind):
            rights.append(phi.right)
            phi = phi.left
        op, first, rest = (" and ", _and_text, _unary_text) if kind is fm.FAnd else (" or ", _or_text, _and_text)
        return op.join([first(phi), *map(rest, reversed(rights))])
    if isinstance(phi, fm.FImp):
        return f"{_or_text(phi.left)} -> {recursive_formula_text(phi.right)}"
    if isinstance(phi, fm.FQuant):
        return f"{phi.kind} {phi.var} < {recursive_term_text(phi.bound)} . {recursive_formula_text(phi.body)}"
    raise TypeError(phi)


def _unary_text(phi) -> str:
    if isinstance(phi, (fm.FAnd, fm.FOr, fm.FImp, fm.FQuant)):
        return f"({recursive_formula_text(phi)})"
    return recursive_formula_text(phi)


def _and_text(phi) -> str:
    if isinstance(phi, (fm.FOr, fm.FImp, fm.FQuant)):
        return f"({recursive_formula_text(phi)})"
    return recursive_formula_text(phi)


def _or_text(phi) -> str:
    if isinstance(phi, (fm.FImp, fm.FQuant)):
        return f"({recursive_formula_text(phi)})"
    return recursive_formula_text(phi)


def recursive_subst_term(t, mapping: dict):
    if isinstance(t, fm.TVar) and t.name in mapping:
        return fm.TVar(mapping[t.name])
    if isinstance(t, fm.TAdd):
        return fm.TAdd(recursive_subst_term(t.left, mapping), recursive_subst_term(t.right, mapping))
    if isinstance(t, fm.TMul):
        return fm.TMul(recursive_subst_term(t.left, mapping), recursive_subst_term(t.right, mapping))
    if isinstance(t, fm.TPow):
        return fm.TPow(recursive_subst_term(t.base, mapping), t.exponent)
    return t


def recursive_rename_free(phi, mapping: dict):
    """Rename free variables; binders shadow as usual."""
    if isinstance(phi, (fm.FTrue, fm.FFalse)):
        return phi
    if isinstance(phi, fm.FCmp):
        return fm.FCmp(phi.op, recursive_subst_term(phi.left, mapping), recursive_subst_term(phi.right, mapping))
    if isinstance(phi, fm.FIn):
        return fm.FIn(recursive_subst_term(phi.term, mapping))
    if isinstance(phi, fm.FNot):
        return fm.FNot(recursive_rename_free(phi.body, mapping))
    if isinstance(phi, (fm.FAnd, fm.FOr, fm.FImp)):
        return type(phi)(recursive_rename_free(phi.left, mapping), recursive_rename_free(phi.right, mapping))
    if isinstance(phi, fm.FQuant):
        inner = {k: v for k, v in mapping.items() if k != phi.var}
        return fm.FQuant(phi.kind, phi.var, recursive_subst_term(phi.bound, mapping),
                         recursive_rename_free(phi.body, inner))
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# The character-loop tokenizer and the one-method-per-operator parser that
# formula.parse replaced.  They accept any Unicode letter, digit or space,
# so they are the reference for ASCII text only.
# ---------------------------------------------------------------------------


def _descent_tokenize(text: str) -> list:
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
            tokens.append(fm._Token("num", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(fm._Token("ident", text[i:j], i))
            i = j
        elif text.startswith("->", i):
            tokens.append(fm._Token("sym", "->", i))
            i += 2
        elif text.startswith("<=", i):
            tokens.append(fm._Token("sym", "<=", i))
            i += 2
        elif c in "<=+*^().":
            tokens.append(fm._Token("sym", c, i))
            i += 1
        else:
            raise fm.FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(fm._Token("eof", "", n))
    return tokens


class _DescentParser:
    """Recursive descent: -> (right assoc) < or < and < not < atom."""

    def __init__(self, text: str):
        self.tokens = _descent_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.next()
        if tok.text != text:
            raise fm.FormulaSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse_formula(self):
        left = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return fm.FImp(left, self.parse_formula())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek().text == "or":
            self.next()
            left = fm.FOr(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek().text == "and":
            self.next()
            left = fm.FAnd(left, self.parse_unary())
        return left

    def parse_unary(self):
        tok = self.peek()
        if tok.text == "not":
            self.next()
            return fm.FNot(self.parse_unary())
        if tok.text in ("forall", "exists"):
            self.next()
            var = self.next()
            if var.kind != "ident" or not descent_variable_name(var.text):
                raise fm.FormulaSyntaxError("expected a quantified variable name", var.pos)
            if self.peek().text != "<":
                raise fm.FormulaSyntaxError(
                    "quantifier must carry an explicit bound: "
                    f"{tok.text} {var.text} < term . formula",
                    self.peek().pos,
                )
            self.next()
            bound = self.parse_term()
            self.expect(".")
            return fm.FQuant(tok.text, var.text, bound, self.parse_formula())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return fm.TRUE
        if tok.text == "false":
            self.next()
            return fm.FALSE
        if tok.text == "(":
            # may be a parenthesized formula or a parenthesized term in a
            # comparison; try formula first, fall back on term
            save = self.i
            try:
                self.next()
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except fm.FormulaSyntaxError:
                self.i = save
        left = self.parse_term()
        tok = self.next()
        if tok.text in ("<", "=", "<="):
            return fm.FCmp(tok.text, left, self.parse_term())
        if tok.text == "in":
            name = self.next()
            if name.text != "A":
                raise fm.FormulaSyntaxError(
                    f"unknown set parameter {name.text!r}; only A is available", name.pos
                )
            return fm.FIn(left)
        raise fm.FormulaSyntaxError(f"expected comparison or 'in', found {tok.text!r}", tok.pos)

    def parse_term(self):
        left = self.parse_factor()
        while self.peek().text == "+":
            self.next()
            left = fm.TAdd(left, self.parse_factor())
        return left

    def parse_factor(self):
        left = self.parse_power()
        while self.peek().text == "*":
            self.next()
            left = fm.TMul(left, self.parse_power())
        return left

    def parse_power(self):
        base = self.parse_primary()
        if self.peek().text == "^":
            self.next()
            exp = self.next()
            if exp.kind != "num":
                raise fm.FormulaSyntaxError("exponent must be a numeral", exp.pos)
            return fm.TPow(base, int(exp.text))
        return base

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "num":
            return fm.TConst(int(tok.text))
        if tok.text == "(":
            inner = self.parse_term()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text == "a":
                return fm.TConstA()
            if tok.text == "A" or tok.text in fm.KEYWORDS:
                raise fm.FormulaSyntaxError(f"unexpected identifier {tok.text!r} in term", tok.pos)
            return fm.TVar(tok.text)
        raise fm.FormulaSyntaxError(f"expected a term, found {tok.text!r}", tok.pos)


def descent_variable_name(name) -> bool:
    if not isinstance(name, str) or not name or name in fm.KEYWORDS or name in ("a", "A"):
        return False
    return (name[0].isalpha() or name[0] == "_") and all(c.isalnum() or c in "_'" for c in name)


def descent_parse(text: str):
    parser = _DescentParser(text)
    phi = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise fm.FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return phi


# ---------------------------------------------------------------------------
# Coloring challenges by enumeration: `is_large_gamma` and density clauses
# (a) and (c) as they were before one pruned counterexample walk replaced
# their three loops
# ---------------------------------------------------------------------------


class ProductChallenges:
    """Every statement coloring and every point coloring of z, in `product`
    order, within the coloring ceiling; partitions as in `ramsey`."""

    clause_order = ramsey._Exhaustive.clause_order
    partitions = ramsey._Exhaustive.partitions

    def colorings(self, z, statement):
        slots, colors = comb(len(z), statement.arity), statement.colors
        if colors ** slots > ramsey.COLORING_CEILING:
            raise fm.CeilingExceeded(f"coloring space {colors}^{slots} exceeds ceiling {ramsey.COLORING_CEILING}")
        return (ColoringTable(z, statement.arity, colors, t) for t in product(range(colors), repeat=slots))

    def point_colorings(self, z):
        count = z.minimum ** len(z)
        if count > ramsey.COLORING_CEILING:
            raise fm.CeilingExceeded(f"point-coloring space {count} exceeds ceiling")
        for values in product(range(z.minimum), repeat=len(z)):
            yield dict(zip(z.elements, values))


class DrawnChallenges:
    """`trials` seeded draws of each kind of challenge, in the order
    `ramsey` draws them."""

    clause_order = ramsey._Sampled.clause_order
    partitions = ramsey._Sampled.partitions

    def __init__(self, seed: int, trials: int):
        self.rng, self.trials = random.Random(seed), trials

    def colorings(self, z, statement):
        slots = comb(len(z), statement.arity)
        for _ in range(self.trials):
            table = tuple(self.rng.randrange(statement.colors) for _ in range(slots))
            yield ColoringTable(z, statement.arity, statement.colors, table)

    def point_colorings(self, z):
        for _ in range(self.trials):
            yield {v: self.rng.randrange(z.minimum) for v in z.elements}


def _challenges(mode):
    return ProductChallenges() if mode.kind == "exact" else DrawnChallenges(mode.seed, mode.trials)


@ramsey._ceilings_inconclusive
def product_is_large_gamma(z, r, s, sentence, statement, mode):
    """`ramsey.is_large_gamma`: the large subsets, then each coloring."""
    spec = LargenessSpec(r, s, sentence)
    subsets, colorings = ramsey._subsets(z), _challenges(mode).colorings(z, statement)
    large_subsets = [y for y in subsets if check_large(y, spec)]
    for f in colorings:
        if not any(statement.solution_ok(f, y) for y in large_subsets):
            return Verdict(FALSE, f"counterexample coloring {list(f.table)}")
    if mode.kind == "exact":
        return Verdict(TRUE, "exhaustive over the coloring space")
    return Verdict(INCONCLUSIVE, f"{mode.trials} sampled colorings all admit solutions")


def product_failed_clause(y, m, sentence, statement, source, dense):
    """`ramsey._failed_clause`, with clauses (a) and (c) over the colorings
    of `source`."""

    def dense_subset(ok) -> bool:
        return any(ok(sub) and dense(sub, m - 1) for sub in ramsey._subsets(y))

    refuted = {
        "a": lambda: any(not dense_subset(lambda sub: statement.solution_ok(f, sub))
                         for f in source.colorings(y, statement)),
        "b": lambda: any(not any(dense(p, m - 1) for p in pieces) for pieces in source.partitions(y)),
        "c": lambda: any(not dense_subset(lambda sub: len({col[v] for v in sub}) == 1)
                         for col in source.point_colorings(y)),
        "d": lambda: not dense_subset(lambda sub: sentence.holds_bounded(y.minimum, sub.minimum, sub.maximum)),
    }
    return next((clause for clause in source.clause_order if refuted[clause]()), None)


@ramsey._ceilings_inconclusive
def product_is_n_dense(z, m, sentence, statement, mode):
    """`ramsey.is_n_dense` over `product_failed_clause`, recursing into
    itself in sampled mode."""
    source = _challenges(mode)
    if mode.kind == "exact":
        if m > 2:
            raise fm.CeilingExceeded("exact density is capped at level 2")
        memo = {}

        def dense(y, level):
            key = (y.elements, level)
            if key not in memo:
                memo[key] = bool(y.elements) and (
                    ramsey._dense0(y, sentence) if level == 0
                    else product_failed_clause(y, level, sentence, statement, source, dense) is None
                )
            return memo[key]

        return Verdict(TRUE if dense(z, m) else FALSE, "exhaustive density recursion")

    if m == 0:
        return Verdict(TRUE if ramsey._dense0(z, sentence) else FALSE, "level 0 is a largeness check")

    def sampled_dense(y, level):
        draw = ramsey.Mode("sampled", source.rng.randrange(2 ** 30), max(1, mode.trials // 4))
        return product_is_n_dense(y, level, sentence, statement, draw).value != FALSE

    clause = product_failed_clause(z, m, sentence, statement, source, sampled_dense)
    if clause is not None:
        return Verdict(FALSE, ramsey._SAMPLED_REFUTATIONS[clause])
    return Verdict(INCONCLUSIVE, f"{mode.trials} trials per item found no counterexample")


# ---------------------------------------------------------------------------
# Fusion's certificate as it was assembled before it was built in the fused
# set's coordinates: each level rebuilds its members' values and offsets and
# shifts every subtree again
# ---------------------------------------------------------------------------


def _w_assemble(family, member_certs, mblock, bb):
    lo, hi = mblock.lo, mblock.hi
    vals = [family[lo].maximum]
    offsets = {}
    for s in range(lo + 1, hi):
        offsets[s] = len(vals)
        vals.extend(family[s].elements)
    if bb == 0:
        inner = member_certs[lo + 1]
        off = offsets[lo + 1]
        block = Block(off + inner.lo, off + inner.hi, shift_cert(inner.cert, off))
        return tuple(vals), block
    children = []
    for z in mblock.cert.children:
        _, sub_block = _w_assemble(family, member_certs, z, bb - 1)
        pos = offsets[z.lo] + len(family[z.lo]) - 1
        children.append(Block(pos + sub_block.lo, pos + sub_block.hi, shift_cert(sub_block.cert, pos)))
    return tuple(vals), Block(0, len(vals), Node(vals[0], tuple(children)))


def assembled_fusion(family, a: int, b: int, sentence):
    """(fused set, certificate) of `extract.fuse` on an increasing, pairwise
    apart family, or None where a member is not large at a or the maxima
    are not large at b + 1."""
    member_certs = [check_large(member, LargenessSpec(a, 1, sentence)) for member in family]
    mcert = check_large(FinSet(tuple(m.maximum for m in family)), LargenessSpec(b + 1, 1, sentence))
    if mcert is None or None in member_certs:
        return None
    vals, top = _w_assemble(
        family, [c.blocks[0] for c in member_certs], Block(0, len(family), mcert.blocks[0].cert), b
    )
    return FinSet(vals), Certificate(a + b, 1, (top,))


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller)
# ---------------------------------------------------------------------------


def random_term(rng: random.Random, variables, size: int):
    if size <= 1:
        pick = rng.randrange(3)
        if pick == 0 or not variables:
            return fm.TConst(rng.randrange(0, 9))
        if pick == 1:
            return fm.TConstA()
        return fm.TVar(rng.choice(variables))
    cut = rng.randrange(1, size)
    pick = rng.randrange(3)
    if pick == 0:
        return fm.TAdd(random_term(rng, variables, cut), random_term(rng, variables, size - cut))
    if pick == 1:
        return fm.TMul(random_term(rng, variables, cut), random_term(rng, variables, size - cut))
    return fm.TPow(random_term(rng, variables, size - 1), rng.randrange(0, 3))


def random_formula(rng: random.Random, variables, size: int):
    if size <= 1:
        pick = rng.randrange(5)
        if pick == 0:
            return fm.TRUE
        if pick == 1:
            return fm.FALSE
        if pick == 2:
            return fm.FIn(random_term(rng, variables, 1))
        op = rng.choice(["<", "=", "<="])
        return fm.FCmp(op, random_term(rng, variables, 1), random_term(rng, variables, 1))
    pick = rng.randrange(6)
    if pick == 0:
        return fm.FNot(random_formula(rng, variables, size - 1))
    if pick <= 3:
        cut = rng.randrange(1, size)
        ctor = {1: fm.FAnd, 2: fm.FOr, 3: fm.FImp}[pick]
        return ctor(
            random_formula(rng, variables, cut),
            random_formula(rng, variables, size - cut),
        )
    if pick == 4:
        op = rng.choice(["<", "=", "<="])
        cut = max(1, size // 2)
        return fm.FCmp(op, random_term(rng, variables, cut), random_term(rng, variables, size - cut))
    var = f"q{rng.randrange(3)}"
    kind = rng.choice(["forall", "exists"])
    bound = random_term(rng, variables, 1)
    body = random_formula(rng, list(variables) + [var], size - 2 if size > 2 else 1)
    return fm.FQuant(kind, var, bound, body)
