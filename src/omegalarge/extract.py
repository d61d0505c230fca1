"""Constructive extractors: pigeonhole homogenization, mixed decomposition,
and fusion of apart block families.

Each procedure runs as an induction on its exponent parameter, consuming
the certificate tree of the input; every output is re-validated from
scratch before being returned.
"""

from __future__ import annotations


from .budget import Budget, budget_or_unlimited
from .formula import Pi03Sentence
from .largeness import (
    Block,
    Certificate,
    LargenessSpec,
    Node,
    PreconditionError,
    check_large,
    is_plain_large,
    shift_cert,
    t_apart,
    verify_certificate,
)
from .record import Record
from .sets import ColoringTable, FinSet, SparsityPolicy, is_sparse


class CountingFailure(RuntimeError):
    """The finite pigeonhole step could not produce a small enough anchor.

    Happens only when the input is not sparse enough for the counting
    argument; lenient mode falls back to a complete direct search instead.
    """


class ExtractionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Pigeonhole homogenization
# ---------------------------------------------------------------------------


class PigeonholeResult(Record):
    homogeneous: FinSet
    color: int
    certificate: Certificate
    used_fallback: bool
    counting_inequality_held: bool


def pigeonhole_extract(
    x: FinSet,
    f: ColoringTable,
    b: int,
    sentence: Pi03Sentence,
    policy: SparsityPolicy = SparsityPolicy.NONE,
    strict: bool = False,
    budget: Budget | None = None,
) -> PigeonholeResult:
    """Extract a homogeneous subset large at exponent b from one large at 2b.

    Follows the inductive argument: split the certificate's decomposition,
    find the first prefix whose colors cover a later block, recurse inside
    that block, and regroup one color class around a small anchor.  When no
    anchor is small enough (the input was not sparse enough for the counting
    step), strict mode raises CountingFailure; otherwise a complete direct
    search over color classes finishes the job.  Either way the output is
    re-verified: homogeneous by scan, large by an independent certificate.
    """
    if f.arity != 1:
        raise PreconditionError("pigeonhole extraction expects a singleton coloring")
    if not x.subset_of(f.domain):
        raise PreconditionError("coloring is not total on the set")
    if not x.elements:
        raise PreconditionError("empty set")
    if f.colors > x.minimum:
        raise PreconditionError(
            f"coloring uses {f.colors} colors but only min X = {x.minimum} are allowed"
        )
    if not is_sparse(x, policy):
        raise PreconditionError(f"set is not {policy.value}-sparse")
    budget = budget_or_unlimited(budget)
    budget.enter("pigeonhole extraction")
    spec_in = LargenessSpec(2 * b, 1, sentence)
    cert = check_large(x, spec_in, budget=budget)
    if cert is None:
        raise PreconditionError(f"input is not large at exponent {2 * b}")

    xs = x.elements
    flags: list[bool] = []

    def vals(blk: Block) -> tuple[int, ...]:
        return xs[blk.lo: blk.hi]

    def induct(blk: Block, bb: int) -> tuple[tuple[int, ...], int]:
        budget.tick()
        if bb == 0:
            v = xs[blk.lo]
            return (v,), f(v)
        node = blk.cert
        assert isinstance(node, Node)
        children = node.children
        first_colors = f.image(vals(children[0]))
        if len(first_colors) == 1:
            return vals(children[0]), first_colors.pop()
        prefix_colors: list[set[int]] = [set()]
        for ch in children:
            prefix_colors.append(prefix_colors[-1] | f.image(vals(ch)))
        candidates = [
            t
            for t in range(len(children) - 1, 0, -1)
            if prefix_colors[t] >= f.image(vals(children[t]))
        ]
        if not candidates:
            raise CountingFailure("no prefix covers a later block's colors")
        for t in candidates:
            sub_node = children[t].cert
            assert isinstance(sub_node, Node)
            pieces = [induct(y, bb - 1) for y in sub_node.children]
            groups: dict[int, list[tuple[int, ...]]] = {}
            for piece, c in pieces:
                groups.setdefault(c, []).append(piece)
            anchor_pool = [v for i in range(t) for v in vals(children[i])]
            prev_max = vals(children[t - 1])[-1]
            min_t = vals(children[t])[0]
            order = sorted(groups, key=lambda c: (-len(groups[c]), c))
            for c in order:
                group = groups[c]
                anchors = [v for v in anchor_pool if f(v) == c and v <= len(group)]
                if not anchors:
                    continue
                anchor = min(anchors)
                flags.append(node.head * prev_max < min_t)
                merged = (anchor,) + tuple(v for piece in group for v in piece)
                return merged, c
        raise CountingFailure(
            f"pigeonhole counting failed: block minimum {min_t} admits no anchor "
            f"below the group sizes (policy {policy.value} too weak here)"
        )

    used_fallback = False
    try:
        out_vals, color = induct(cert.blocks[0], b)
        out = FinSet(out_vals)
        out_cert = check_large(out, LargenessSpec(b, 1, sentence), budget=budget)
        if out_cert is None:
            raise CountingFailure("inductive merge not large after regrouping")
    except CountingFailure:
        if strict:
            raise
        used_fallback = True
        out, color, out_cert = _color_class_fallback(x, cert.blocks[0], f, b, sentence, budget)

    if any(f(v) != color for v in out):
        raise RuntimeError("extracted subset is not homogeneous")
    if out_cert is None or not verify_certificate(out, out_cert, LargenessSpec(b, 1, sentence)):
        raise RuntimeError("extracted subset failed its certificate re-check")
    # held means every regrouping step on the successful inductive path had
    # the sparsity counting inequality; moot when the fallback was used
    counting_held = all(flags) and not used_fallback
    return PigeonholeResult(out, color, out_cert, used_fallback, counting_held)


def _color_class_fallback(x, blk, f, b, sentence, budget):
    """Complete fallback: largeness is closed under supersets, so a large
    homogeneous subset exists iff some whole color class is large."""
    xs = x.elements
    pool = xs[blk.lo: blk.hi]
    for c in sorted(f.image(pool)):
        cls = FinSet(tuple(v for v in pool if f(v) == c))
        cert = check_large(cls, LargenessSpec(b, 1, sentence), budget=budget)
        if cert is not None:
            return cls, c, cert
    raise ExtractionFailure(
        f"no homogeneous subset large at exponent {b} exists in this instance"
    )


# ---------------------------------------------------------------------------
# Mixed decomposition: apart blocks whose minima set is plainly large
# ---------------------------------------------------------------------------


class DecomposeResult(Record):
    blocks: tuple[FinSet, ...]
    block_certificates: tuple[Certificate, ...]
    minima: FinSet


def decompose_mixed(
    x: FinSet,
    n: int,
    m: int,
    sentence: Pi03Sentence,
    budget: Budget | None = None,
) -> DecomposeResult:
    """Split a set large at exponent n+m+1 into pairwise apart blocks, each
    large at exponent n, whose minima form a plainly large set at exponent m.

    Inductive on m via apart pairs: the base keeps the left member alone;
    the step decomposes the right member and recurses on consecutive pairs
    of its sub-blocks.
    """
    if n < 0 or m < 0:
        raise PreconditionError("exponents n and m must be >= 0")
    budget = budget_or_unlimited(budget)
    budget.enter("mixed decomposition")
    cert = check_large(x, LargenessSpec(n + m + 1, 1, sentence), budget=budget)
    if cert is None:
        raise PreconditionError(f"input is not large at exponent {n + m + 1}")
    xs = x.elements

    def vals(blk: Block) -> tuple[int, ...]:
        return xs[blk.lo: blk.hi]

    def helper(pair0: Block, pair1: Block, mm: int) -> list[Block]:
        budget.tick()
        if mm == 0:
            return [pair0]
        node1 = pair1.cert
        assert isinstance(node1, Node)
        z = node1.children
        min_y0 = vals(pair0)[0]
        if 2 * min_y0 > len(z):
            raise RuntimeError("decomposition shorter than the doubling argument needs")
        out = [pair0]
        for j in range(min_y0):
            out.extend(helper(z[2 * j], z[2 * j + 1], mm - 1))
        return out

    top = cert.blocks[0].cert
    assert isinstance(top, Node)
    raw = helper(top.children[0], top.children[1], m)
    blocks = tuple(FinSet(vals(blk)) for blk in raw)

    certs = []
    for blk in blocks:
        c = check_large(blk, LargenessSpec(n, 1, sentence), budget=budget)
        if c is None:
            raise RuntimeError("block lost largeness at the target exponent")
        certs.append(c)
    for left, right in zip(blocks, blocks[1:]):
        if not t_apart(left, right, sentence):
            raise RuntimeError("consecutive blocks are not apart")
    minima = FinSet(tuple(blk.minimum for blk in blocks))
    if not is_plain_large(minima.elements, m):
        raise RuntimeError("minima set is not plainly large")
    return DecomposeResult(blocks, tuple(certs), minima)


# ---------------------------------------------------------------------------
# Fusion of an apart family along a large set of maxima
# ---------------------------------------------------------------------------


class FuseResult(Record):
    fused: FinSet
    certificate: Certificate


def fuse(
    first: FinSet,
    rest: list[FinSet] | tuple[FinSet, ...],
    a: int,
    b: int,
    sentence: Pi03Sentence,
    budget: Budget | None = None,
) -> FuseResult:
    """Fuse apart blocks, each large at exponent a, whose maxima form a set
    large at exponent b+1, into one set large at exponent a+b.

    The result is the first block's maximum together with all later blocks;
    its certificate is assembled recursively from the maxima certificate,
    then re-verified independently.
    """
    budget = budget_or_unlimited(budget)
    budget.enter("fusion")
    family = [first, *rest]
    if len(family) < 2:
        raise PreconditionError("fusion needs at least two blocks")
    for left, right in zip(family, family[1:]):
        if not left.elements or not right.elements or left.maximum >= right.minimum:
            raise PreconditionError("blocks must be nonempty and increasing")
        if not t_apart(left, right, sentence):
            raise PreconditionError("blocks are not pairwise apart")
    member_certs = []
    for member in family:
        c = check_large(member, LargenessSpec(a, 1, sentence), budget=budget)
        if c is None:
            raise PreconditionError(f"a block is not large at exponent {a}")
        member_certs.append(c.blocks[0])

    maxima = FinSet(tuple(member.maximum for member in family))
    mcert = check_large(maxima, LargenessSpec(b + 1, 1, sentence), budget=budget)
    if mcert is None:
        raise PreconditionError(f"maxima set is not large at exponent {b + 1}")

    def w_assemble(mblock: Block, bb: int) -> tuple[tuple[int, ...], Block]:
        """Fused form of the members whose maxima lie in mblock: the first
        member's maximum followed by the later members in full."""
        lo, hi = mblock.lo, mblock.hi
        vals: list[int] = [family[lo].maximum]
        offsets = {}
        for s in range(lo + 1, hi):
            offsets[s] = len(vals)
            vals.extend(family[s].elements)
        if bb == 0:
            inner = member_certs[lo + 1]
            off = offsets[lo + 1]
            block = Block(off + inner.lo, off + inner.hi, shift_cert(inner.cert, off))
            return tuple(vals), block
        node = mblock.cert
        assert isinstance(node, Node)
        children = []
        for z in node.children:
            _, sub_block = w_assemble(z, bb - 1)
            pos = offsets[z.lo] + len(family[z.lo]) - 1
            children.append(Block(pos + sub_block.lo, pos + sub_block.hi, shift_cert(sub_block.cert, pos)))
        return tuple(vals), Block(0, len(vals), Node(vals[0], tuple(children)))

    # widened to the whole family, so later members past the maxima
    # certificate's block still belong to the fused set
    out_vals, top = w_assemble(Block(0, len(family), mcert.blocks[0].cert), b)
    fused = FinSet(out_vals)
    certificate = Certificate(a + b, 1, (top,))
    spec_out = LargenessSpec(a + b, 1, sentence)
    if not verify_certificate(fused, certificate, spec_out):
        raise RuntimeError("assembled certificate failed re-check")
    return FuseResult(fused, certificate)
