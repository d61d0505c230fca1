"""Largeness and density relative to partition statements, the transitive
and homogeneous extraction pipelines, and the explicit bound table.
"""

from __future__ import annotations

import functools
import random
import sys
from itertools import combinations
from math import comb
from typing import Optional

from .budget import Budget, BudgetExceeded, budget_or_unlimited
from .formula import HOMOGENEOUS, TOP, CeilingExceeded, Pi03Sentence, RtLikeStatement
from .grouping import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    GroupingWalk,
    SearchOutcome,
    find_homogeneous,
    find_transitive,
)
from .largeness import (
    LargenessSpec,
    PreconditionError,
    _check_admissible,
    _check_coloring,
    check_large,
    is_large,
    is_plain_large,
    verify_certificate,
)
from .record import FrozenRecord, Record
from .sets import ColoringTable, FinSet, is_transitive

TRUE = "true"
FALSE = "false"
INCONCLUSIVE = "inconclusive"

# the largest coloring and subset spaces an exhaustive check enumerates
COLORING_CEILING = 2 ** 20
SUBSET_CEILING = 2 ** 20
# the highest level sampled density evaluates: each level nests one sampled
# call about eight interpreter frames deep, so this level takes about 520 of
# the default recursion limit of 1,000 and leaves the rest to the largeness
# check at level 0 and to in-process callers such as the tests
SAMPLED_LEVEL_CAP = 64


class Verdict(FrozenRecord):
    value: str  # true | false | inconclusive
    reason: str = ""

    def __init__(self, value: str, reason: str = "") -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("three-valued verdict; compare .value explicitly")


class Mode(FrozenRecord):
    """Exact enumeration, or `trials` seeded draws per challenge."""

    kind: str = "exact"  # 'exact' | 'sampled'
    seed: int = 1729
    trials: int = 200

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.kind!r}; use 'exact' or 'sampled'")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")


def _subsets(z: FinSet):
    """The nonempty subsets of z, largest first; the ceiling is checked
    when this is called, not when the first subset is drawn."""
    if 2 ** len(z) > SUBSET_CEILING:
        raise CeilingExceeded(f"subset space 2^{len(z)} exceeds ceiling {SUBSET_CEILING}")
    return (FinSet(sub) for size in range(len(z), 0, -1) for sub in combinations(z.elements, size))


def _pieces(z: FinSet, cuts) -> list[FinSet]:
    """z cut into consecutive runs at the increasing positions `cuts`."""
    bounds = (0, *cuts, len(z))
    return [FinSet(z.elements[a:b]) for a, b in zip(bounds, bounds[1:])]


class _Exhaustive:
    """Every challenge of each kind, within the ceilings."""

    clause_order = "bcda"  # the verdict does not depend on it: cheap clauses first

    def counterexample(self, z: FinSet, statement: RtLikeStatement, candidates, good) -> Optional[ColoringTable]:
        """The first coloring of z in table order under which no y in candidates()
        (subsets, largest first) with good(y) is a solution, or None.  Meets
        the coloring ceiling, then calls candidates(); walks slots depth first."""
        arity, colors, slots = statement.arity, statement.colors, comb(len(z), statement.arity)
        if colors ** slots > COLORING_CEILING:
            raise CeilingExceeded(f"coloring space {colors}^{slots} exceeds ceiling {COLORING_CEILING}")
        last = {t: depth for depth, t in enumerate(combinations(z.elements, arity), 1)}
        due = {}  # y is due at the depth that colors its lexicographically last tuple
        for y in candidates():
            if not due:  # a loop over all colorings asks this first; solution_ok's ceiling reads |y| only
                statement.solution_ok(ColoringTable(z, arity, colors, (0,) * slots), y)
            due.setdefault(last.get(y.elements[len(y) - arity:], 0), []).append(y)
        not_good = set()  # good is deterministic, so a y found not good is not tried again
        prefixes = [()]  # popped in lexicographic order
        while prefixes:
            prefix = prefixes.pop()
            f = ColoringTable(z, arity, colors, prefix + (0,) * (slots - len(prefix)))
            if any(y not in not_good and statement.solution_ok(f, y) and (good(y) or not_good.add(y))
                   for y in due.get(len(prefix), ())):  # set.add returns None: recorded, not admitted
                continue  # solution_ok reads f only on y's tuples, so every completion admits y
            if len(prefix) == slots:
                return f
            prefixes.extend(prefix + (c,) for c in reversed(range(colors)))
        return None

    def partitions(self, z: FinSet):
        """Interval partitions into at most min-many parts."""
        for parts in range(1, min(z.minimum, len(z)) + 1):
            for cuts in combinations(range(1, len(z)), parts - 1):
                yield _pieces(z, cuts)


class _Sampled(Record):
    """`trials` seeded draws of each kind of challenge."""

    rng: random.Random
    trials: int
    clause_order = "abcd"  # the draws come in the order they were pinned in

    def counterexample(self, z: FinSet, statement: RtLikeStatement, candidates, good) -> Optional[ColoringTable]:
        for _ in range(self.trials):
            ys = candidates()  # meets the subset ceiling before a coloring is drawn
            f = ColoringTable.random(z, statement.arity, statement.colors, self.rng)
            if not any(statement.solution_ok(f, y) and good(y) for y in ys):
                return f
        return None

    def partitions(self, z: FinSet):
        for _ in range(self.trials):
            parts = self.rng.randrange(1, min(z.minimum, len(z)) + 1)
            yield _pieces(z, sorted(self.rng.sample(range(1, len(z)), parts - 1)))


_EXHAUSTIVE = _Exhaustive()


def _source(mode: Mode):
    return _EXHAUSTIVE if mode.kind == "exact" else _Sampled(random.Random(mode.seed), mode.trials)


def _ceilings_inconclusive(check):
    """check, with a ceiling it meets read as an inconclusive verdict."""

    @functools.wraps(check)
    def run(*args, **kwargs) -> Verdict:
        try:
            return check(*args, **kwargs)
        except CeilingExceeded as err:
            return Verdict(INCONCLUSIVE, str(err))

    return run


@_ceilings_inconclusive
def is_large_gamma(
    z: FinSet, r: int, s: int, sentence: Pi03Sentence, statement: RtLikeStatement, mode: Mode = Mode()
) -> Verdict:
    """Does every coloring of z admit a large solution subset?

    Exact mode enumerates the full coloring space and is definitive both
    ways; sampled mode can only refute or stay inconclusive.  A ceiling
    reads inconclusive.
    """
    _check_admissible(z, sentence)
    spec = LargenessSpec(r, s, sentence)
    subsets = _subsets(z)  # the subset ceiling, then the coloring ceiling, then the largeness checks
    large = functools.cache(lambda: [y for y in subsets if is_large(y, spec)])
    f = _source(mode).counterexample(z, statement, large, lambda y: True)
    if f is not None:
        return Verdict(FALSE, f"counterexample coloring {list(f.table)}")
    if mode.kind == "exact":
        return Verdict(TRUE, "exhaustive over the coloring space")
    return Verdict(INCONCLUSIVE, f"{mode.trials} sampled colorings all admit solutions")


def _dense0(y: FinSet, sentence: Pi03Sentence) -> bool:
    return is_large(y, LargenessSpec(1, 1, sentence))


def _failed_clause(y: FinSet, sentence, statement, source, below) -> Optional[str]:
    """The first density clause, in `source.clause_order`, that y fails
    against the challenges of `source`, or None; `below(sub)` decides
    density of a subset one level down."""
    refuted = {
        # (a) one statement application
        "a": lambda: source.counterexample(y, statement, lambda: _subsets(y), below) is not None,
        # (b) interval partitions with at most min-many parts
        "b": lambda: any(not any(below(p) for p in pieces) for pieces in source.partitions(y)),
        # (c) colorings of the points by the min(y) values below min(y); none if min(y) = 0
        "c": lambda: y.minimum > 0 and source.counterexample(
            y, RtLikeStatement(1, y.minimum, HOMOGENEOUS), lambda: _subsets(y), below) is not None,
        # (d) a bounding step for the sentence
        "d": lambda: not any(sentence.holds_bounded(y.minimum, sub.minimum, sub.maximum) and below(sub)
                             for sub in _subsets(y)),
    }
    return next((clause for clause in source.clause_order if refuted[clause]()), None)


def _exact_dense(y: FinSet, level: int, sentence, statement, memo: dict) -> bool:
    """Exact density of y at level, memoised in memo by (y, level)."""
    key = (y, level)
    if key not in memo:
        memo[key] = bool(y.elements) and (
            _dense0(y, sentence) if level == 0
            else _failed_clause(
                y, sentence, statement, _EXHAUSTIVE,
                lambda sub: _exact_dense(sub, level - 1, sentence, statement, memo),
            ) is None
        )
    return memo[key]


# what a sampled refutation reports, by the clause that failed
_SAMPLED_REFUTATIONS = {
    "a": "sampled statement coloring admits no dense solution",
    "b": "sampled partition has no dense part",
    "c": "sampled point coloring admits no dense class",
    "d": "no dense subset satisfies the bounding step",
}


@_ceilings_inconclusive
def is_n_dense(
    z: FinSet, m: int, sentence: Pi03Sentence, statement: RtLikeStatement, mode: Mode = Mode()
) -> Verdict:
    """Iterated density: level 0 is largeness at exponent 1 under the
    sentence; level m+1 closes under one statement application, interval
    partitions, min-many colorings, and a bounding step for the sentence.

    Exact mode (levels up to 2) meets every challenge and memoises the
    level below; sampled mode draws `trials` challenges per clause, asks
    each question one level down of a fresh sampled call unless a
    refutation kept in the same top-level call answers it, and can only
    refute or stay inconclusive.  A ceiling reads inconclusive.

    Past SAMPLED_LEVEL_CAP, sampled mode answers from that level: false
    there is false at every higher level, and anything else is a ceiling.
    Proof: an (m+1)-dense set y is m-dense, since clause (b)'s one-part
    partition asks y itself to be dense a level down; so y is not dense
    at any level above one it is not dense at.  And a sampled false is a
    definite refutation: by induction on the level, the question one level
    down answers dense unless a sampled call refutes at or below that level,
    so it holds of every dense set, and each clause (a)-(d) is monotone in
    its level-below predicate, so a challenge no set it accepts meets is met
    by no dense set either.  So a kept refutation answers at its own level
    and every level above it.
    """
    _check_admissible(z, sentence)
    if m < 0:
        raise ValueError("density level must be >= 0")
    source = _source(mode)
    if mode.kind == "exact":
        if m > 2:
            raise CeilingExceeded("exact density is capped at level 2")
        dense = _exact_dense(z, m, sentence, statement, {})
        return Verdict(TRUE if dense else FALSE, "exhaustive density recursion")

    if m > SAMPLED_LEVEL_CAP:
        capped = is_n_dense(z, SAMPLED_LEVEL_CAP, sentence, statement, mode)
        if capped.value == FALSE:
            return capped
        raise CeilingExceeded(f"sampled density is capped at level {SAMPLED_LEVEL_CAP}")
    if m == 0:
        return Verdict(TRUE if _dense0(z, sentence) else FALSE, "level 0 is a largeness check")
    clause = _sampled_failed_clause(z, m, sentence, statement, source, {})
    if clause is not None:
        return Verdict(FALSE, _SAMPLED_REFUTATIONS[clause])
    return Verdict(INCONCLUSIVE, f"{mode.trials} trials per item found no counterexample")


def _sampled_failed_clause(
    y: FinSet, level: int, sentence, statement, source: _Sampled, refuted: dict[FinSet, int]
) -> Optional[str]:
    """The clause y fails at level >= 1 against the draws of `source`, or
    None.  Each question one level down draws its nested seed first, then
    reads `refuted`, the least level at which each subset was refuted so far
    in this top-level call: a refutation at or below the level asked answers
    false (see `is_n_dense`).  Otherwise a fresh sampled check answers, a
    ceiling it meets reading dense, and its refutation is kept.
    """

    def below(sub: FinSet) -> bool:
        seed = source.rng.randrange(2 ** 30)  # drawn whether or not a refutation answers
        if refuted.get(sub, level) < level:
            return False
        try:
            dense = _dense0(sub, sentence) if level == 1 else _sampled_failed_clause(
                sub, level - 1, sentence, statement,
                _Sampled(random.Random(seed), max(1, source.trials // 4)), refuted) is None
        except CeilingExceeded:
            return True
        if not dense:
            refuted[sub] = level - 1
        return dense

    return _failed_clause(y, sentence, statement, source, below)


# ---------------------------------------------------------------------------
# Transitive-subset extraction pipeline
# ---------------------------------------------------------------------------

FAITHFUL_BASE = 16 ** 6 + 1


class EmConstants(FrozenRecord):
    """Per-level block exponents and the transversal requirement.

    The faithful values ((16^6+1)^(level-1) blocks, plainly large transversal
    at exponent 6) are far beyond desk scale; scaled profiles keep the same
    pipeline shape on small instances.
    """

    block_exponents: tuple[int, ...]
    transversal: LargenessSpec

    @classmethod
    def faithful(cls, n: int) -> "EmConstants":
        return cls(
            tuple(FAITHFUL_BASE ** (level - 1) for level in range(1, n + 1)),
            LargenessSpec(6, 1, TOP),
        )

    @classmethod
    def scaled(cls, n: int) -> "EmConstants":
        return cls(
            tuple(0 for _ in range(n)),
            LargenessSpec(1, 1, TOP),
        )

    def exponent(self, level: int) -> int:
        return self.block_exponents[level - 1]


def em_extract(
    x: FinSet,
    f: ColoringTable,
    n: int,
    sentence: Pi03Sentence,
    budget: Budget | None = None,
    constants: EmConstants | None = None,
) -> SearchOutcome:
    """Extract a transitive subset large at exponent n under the sentence.

    Level by level: find a grouping whose blocks are large at the previous
    level's exponent, recurse inside each block for a transitive piece, and
    join the pieces along a transitive tournament over their minima found
    by homogeneous-style search.  A failure names the failing stage in the
    outcome's `detail`; every success is re-validated (triple scan plus
    certificate check).

    The walk visits every grouping, not only those of minimal l0 blocks as
    `find_grouping` does: each block must hold a transitive piece one level
    down, and a minimal one need not.  Under the scaled constants l0 is
    exponent 0, so minimal blocks are singletons, where level-1 recursion
    is always absent.
    """
    _check_admissible(x, sentence)
    _check_coloring(x, f, 2)
    if n < 0:
        raise PreconditionError("exponent must be >= 0")
    if constants is None:
        # a set with a subset large at n is itself plainly large at n; the
        # faithful constants reach (16^6+1)^(n-1), so they are built only after
        if not is_plain_large(x.elements, n):
            return SearchOutcome(ABSENT, detail=f"plain largeness at level {n}")
        constants = EmConstants.faithful(max(n, 1))
    budget = budget_or_unlimited(budget)
    result = _em_level(x, f, n, sentence, budget, constants)
    if result.status == FOUND:
        if not is_transitive(f, result.subset.elements):
            raise RuntimeError("extracted subset is not transitive")
        spec = LargenessSpec(n, 1, sentence)
        if result.certificate is None or not verify_certificate(result.subset, result.certificate, spec):
            raise RuntimeError("extracted subset failed its certificate re-check")
    return result


def _em_level(x, f, n, sentence, budget, constants) -> SearchOutcome:
    if not x.elements:
        return SearchOutcome(ABSENT, detail="empty input")
    if n == 0:
        single = FinSet((x.minimum,))
        cert = check_large(single, LargenessSpec(0, 1, sentence), budget=budget)
        return SearchOutcome(FOUND, subset=single, certificate=cert)

    l0 = LargenessSpec(constants.exponent(n), 1, sentence)
    budget.enter(f"grouping at level {n}")
    walk = GroupingWalk(x, f, l0, constants.transversal, sentence, budget)
    stage = f"grouping at level {n}"
    undecided = False  # an exhausted join leaves the level undecided
    try:
        # a walk that cannot start decides nothing about a set large at n;
        # plain largeness is necessary for that and spends no budget
        if (walk.min_blocks > len(x) and is_large(x, LargenessSpec(n, 1, TOP))
                and is_large(x, LargenessSpec(n, 1, sentence), budget)):
            return SearchOutcome(EXHAUSTED, detail=(
                f"{stage} cannot start: the constants' blocks (large at exponent {l0.exponent}) and transversals "
                f"(large at exponent {constants.transversal.exponent}) need more than the set's {len(x)} points"))
        # the first grouping found need not admit transitive pieces with a
        # usable tournament; keep drawing groupings until one does
        for witness in walk.witnesses():
            out = _em_join(witness.blocks, f, n, sentence, budget, constants)
            if out.status == FOUND:
                return out
            stage = out.detail
            undecided = undecided or out.status == EXHAUSTED
    except BudgetExceeded as err:
        return SearchOutcome(EXHAUSTED, detail=err.stage)
    return SearchOutcome(EXHAUSTED if undecided or walk.ceiling_hit else ABSENT, detail=stage)


def _em_join(blocks, f, n, sentence, budget, constants) -> SearchOutcome:
    pieces: list[FinSet] = []
    for blk in blocks:
        sub = _em_level(blk, f, n - 1, sentence, budget, constants)
        if sub.status != FOUND:
            return SearchOutcome(sub.status, detail=f"recursion into a block at level {n}")
        pieces.append(sub.subset)

    minima = FinSet(tuple(p.minimum for p in pieces))
    reps = {p.minimum: p for p in pieces}
    # blocks are cross-monochromatic, so f on the minima stands in for whole pieces
    budget.enter(f"representative selection at level {n}")
    sel = find_transitive(minima, f, LargenessSpec(1, 1, TOP), budget)
    if sel.status != FOUND:
        return SearchOutcome(sel.status, detail=f"representative selection at level {n}")

    chosen = [reps[v] for v in sel.subset]
    union = FinSet(tuple(v for p in chosen for v in p))
    cert = check_large(union, LargenessSpec(n, 1, sentence), budget=budget)
    if cert is None:
        return SearchOutcome(ABSENT, detail=f"final certification at level {n}")
    return SearchOutcome(FOUND, subset=union, certificate=cert)


# ---------------------------------------------------------------------------
# Interval-length coloring for transitive instances
# ---------------------------------------------------------------------------

DROP_MAX = "drop_max"
DROP_MIN = "drop_min"


class QTotalityError(ValueError):
    pass


def ads_q_coloring(
    x: FinSet,
    f: ColoringTable,
    n: int,
    sentence: Pi03Sentence,
    successor: str = DROP_MAX,
    budget: Budget | None = None,
) -> ColoringTable:
    """Recolor pairs of a transitive instance by how long a homogeneous,
    tail-apart stretch fits inside the interval they span.

    A pair (v, w) gets 4k + 2*color (+1 when the stretch extends one step
    past exponent k).  The one-step-past notion is read as "still large at
    exponent k after dropping the maximum" by default; `successor` switches
    to dropping the minimum.  Pairs with no applicable case raise
    QTotalityError.
    """
    _check_admissible(x, sentence)
    _check_coloring(x, f, 2)
    if successor not in (DROP_MAX, DROP_MIN):
        raise ValueError(f"unknown successor reading {successor!r}")
    if not is_transitive(f, x.elements):
        raise PreconditionError("coloring is not transitive on the set")
    budget = budget_or_unlimited(budget)
    budget.enter("interval recoloring")

    def q(v: int, w: int) -> int:
        i = f(v, w)
        best = None
        for k in range(n + 1):
            if interval_long(x, f, sentence, v, w, i, k, budget=budget):
                best = k
            else:
                break
        if best is None:
            raise QTotalityError(
                f"pair ({v}, {w}) spans no homogeneous tail-apart stretch at all"
            )
        if best >= n:
            raise QTotalityError(
                f"pair ({v}, {w}) is long at exponent {n}; no case applies"
            )
        extra = (
            1
            if interval_long(x, f, sentence, v, w, i, best, succ=True, successor=successor, budget=budget)
            else 0
        )
        return 4 * best + 2 * i + extra

    return ColoringTable.from_function(x, 2, 4 * n, q)


def interval_long(
    x: FinSet,
    f: ColoringTable,
    sentence: Pi03Sentence,
    v: int,
    w: int,
    i: int,
    k: int,
    succ: bool = False,
    successor: str = DROP_MAX,
    budget: Budget | None = None,
) -> bool:
    """Does [v, w) hold a stretch through v, homogeneous with w in color i,
    apart from the tail from w on, and large at exponent k (one element
    past it when `succ`)?  BudgetExceeded when the search for it runs out
    of budget, which decides neither answer."""
    budget = budget_or_unlimited(budget)
    if f(v, w) != i:
        return False
    candidates = tuple(u for u in x.elements if v <= u < w and (u == v or f(u, w) == i))
    if not candidates or candidates[0] != v:
        return False
    # the stretch must be apart from the tail [w, max]; that constraint
    # depends only on the stretch maximum and only gets harder upward
    limit = None
    for u in reversed(candidates):
        if sentence.holds_bounded(u, w, x.maximum):
            limit = u
            break
    if limit is None:
        return False
    pool = FinSet(tuple(u for u in candidates if u <= limit))

    accept = None
    if succ:
        chop = (lambda c: c[:-1]) if successor == DROP_MAX else (lambda c: c[1:])

        def accept(chosen: tuple[int, ...]):
            if len(chosen) < 2:
                return None
            return check_large(FinSet(chop(chosen)), LargenessSpec(k, 1, sentence), budget=budget)

    out = find_homogeneous(
        pool,
        f,
        LargenessSpec(k, 1, sentence),
        budget=budget,
        color=i,
        anchor=v,
        accept=accept,
    )
    if out.status == EXHAUSTED:
        raise BudgetExceeded(budget.stage, budget.spent)
    return out.status == FOUND


def ads_extract(
    x: FinSet,
    f: ColoringTable,
    n: int,
    sentence: Pi03Sentence,
    budget: Budget | None = None,
) -> SearchOutcome:
    """Homogeneous large subset of a transitive instance (direct search)."""
    _check_admissible(x, sentence)
    _check_coloring(x, f, 2)
    if not is_transitive(f, x.elements):
        raise PreconditionError("coloring is not transitive on the set")
    return find_homogeneous(x, f, LargenessSpec(n, 1, sentence), budget=budget)


# ---------------------------------------------------------------------------
# Explicit bound table
# ---------------------------------------------------------------------------


class BoundsRow(FrozenRecord):
    n: int
    pigeonhole: int
    grouping_chain: tuple[int, int, int, int]
    em: int
    ads: int
    rt22: int
    lower: int


def bounds_row(n: int, k: int = 2) -> BoundsRow:
    """The exact integer bounds at exponent n; ValueError, before any is
    computed, when 16^k has more digits than the interpreter's int-to-str
    limit lets print."""
    # 16^k has more than floor(k * log10 16) digits, and 1.2041 < log10 16
    limit, digits = sys.get_int_max_str_digits(), k * 12041 // 10000
    if limit and digits >= limit:
        raise ValueError(f"16^{k} has more than {digits} digits, past the limit of {limit}")
    return BoundsRow(
        n=n,
        pigeonhole=2 * n,
        grouping_chain=(2 * n, 4 * n + 1, 16 * n + 5, 16 ** k * (n + 1)),
        em=FAITHFUL_BASE ** n,
        ads=4 * n + 4,
        rt22=FAITHFUL_BASE ** (4 * n + 4),
        lower=max(0, 2 * n - 1),
    )


def bounds_table(n_max: int, k: int = 2) -> list[BoundsRow]:
    """Exact integer bound table, one row per exponent up to n_max."""
    return [bounds_row(n, k) for n in range(n_max + 1)]


BOUNDS_TSV_HEADER = (
    "n\tpigeonhole\tgrouping1\tgrouping2\tgrouping3\tgrouping4\tem\tads\trt22\tlower"
)


def bounds_line(r: BoundsRow) -> str:
    """The row's TSV line; ValueError past the interpreter's int-to-str
    digit limit."""
    chain = "\t".join(str(v) for v in r.grouping_chain)
    return f"{r.n}\t{r.pigeonhole}\t{chain}\t{r.em}\t{r.ads}\t{r.rt22}\t{r.lower}"


def bounds_tsv(rows: list[BoundsRow]) -> str:
    return "\n".join([BOUNDS_TSV_HEADER, *map(bounds_line, rows)]) + "\n"
