import random
import sys
import time
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalarge import ramsey
from omegalarge.budget import Budget, BudgetExceeded
from omegalarge.formula import (
    BUILTIN_PSI0,
    HOMOGENEOUS,
    PAIR_PSI0,
    TOP,
    Pi03Sentence,
    RtLikeStatement,
    parse,
)
from omegalarge.grouping import ABSENT, EXHAUSTED, FOUND, SearchOutcome
from omegalarge.largeness import LargenessSpec, PreconditionError, check_large, verify_certificate
from omegalarge.ramsey import (
    DROP_MIN,
    FAITHFUL_BASE,
    EmConstants,
    Mode,
    QTotalityError,
    Verdict,
    ads_extract,
    ads_q_coloring,
    bounds_table,
    bounds_tsv,
    em_extract,
    is_large_gamma,
    is_n_dense,
)
from omegalarge.sets import ColoringTable, FinSet

from oracles import (
    BruteForcePlain,
    ProductChallenges,
    product_is_large_gamma,
    product_is_n_dense,
    random_formula,
)

RT1_2 = RtLikeStatement(1, 2, HOMOGENEOUS)
PSI_TRUE = RtLikeStatement(1, 1, "true")
X38 = FinSet.interval(3, 38)


def tiny(*values):
    return FinSet(tuple(values))


# -- largeness for statements --------------------------------------------------


def test_gamma_trivial_statement():
    out = is_large_gamma(tiny(3), 0, 1, TOP, PSI_TRUE)
    assert out.value == "true"
    out = is_large_gamma(tiny(5, 9), 0, 1, TOP, PSI_TRUE)
    assert out.value == "true"


def test_gamma_rt12_exact_counterexample():
    out = is_large_gamma(tiny(3, 4, 5, 6), 1, 1, TOP, RT1_2)
    assert out.value == "false"
    out = is_large_gamma(tiny(3, 4, 5, 6), 0, 1, TOP, RT1_2)
    assert out.value == "true"  # singletons are homogeneous


def test_gamma_true_statement_collapses_to_plain_check():
    rng = random.Random(2)
    universe = tuple(range(3, 13))
    oracle = BruteForcePlain(universe)
    for _ in range(40):
        vals = tuple(sorted(rng.sample(universe, rng.randrange(1, 9))))
        z = FinSet(vals)
        r = rng.randrange(0, 3)
        got = is_large_gamma(z, r, 1, TOP, PSI_TRUE)
        want = oracle.is_large(vals, r, 1)
        assert (got.value == "true") == want


def test_gamma_sampled_only_refutes_or_abstains():
    out = is_large_gamma(tiny(3, 4, 5, 6), 1, 1, TOP, RT1_2, Mode("sampled", seed=5, trials=64))
    assert out.value in ("false", "inconclusive")
    out = is_large_gamma(tiny(3, 4, 5, 6), 0, 1, TOP, RT1_2, Mode("sampled", seed=5, trials=8))
    assert out.value == "inconclusive"


def test_mode_kind_is_checked():
    with pytest.raises(ValueError, match="exhaustive"):
        Mode("exhaustive")
    assert Mode().kind == "exact" and Mode("sampled").kind == "sampled"


def test_mode_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        Mode("sampled", trials=-3)
    assert Mode("sampled", trials=0).trials == 0


def test_exact_gamma_meets_its_ceilings_before_any_largeness_check(monkeypatch):
    calls = []
    monkeypatch.setattr(ramsey, "check_large", lambda *args, **kwargs: calls.append(args))
    rt22 = RtLikeStatement(2, 2, HOMOGENEOUS)
    # 20 points: 2^20 subsets are within the ceiling, 2^190 colorings are not
    out = is_large_gamma(FinSet.interval(3, 22), 0, 1, TOP, rt22)
    assert out == Verdict("inconclusive", "coloring space 2^190 exceeds ceiling 1048576")
    # 21 points pass both ceilings, and the subset ceiling is the one reported
    out = is_large_gamma(FinSet.interval(3, 23), 0, 1, TOP, rt22)
    assert out == Verdict("inconclusive", "subset space 2^21 exceeds ceiling 1048576")
    assert calls == []


def test_verdict_resists_boolean_coercion():
    with pytest.raises(TypeError):
        bool(Verdict("true"))


# -- density -------------------------------------------------------------------


def test_density_level_zero_is_largeness():
    assert is_n_dense(tiny(3, 4, 5, 6), 0, TOP, PSI_TRUE).value == "true"
    assert is_n_dense(tiny(3, 4, 5), 0, TOP, PSI_TRUE).value == "false"


def test_density_level_one_matches_hand_enumerator():
    # with the trivial statement, level one reduces to items (b)-(d); the
    # oracle enumerates them directly from the definition
    def oracle_dense1(z: FinSet) -> bool:
        def dense0(y: FinSet) -> bool:
            return check_large(y, LargenessSpec(1, 1, TOP)) is not None

        if not dense0(z):
            pass  # level 1 does not require level 0 of the whole set
        # (a) trivial statement: any subset works if it is 0-dense
        if not any(
            dense0(FinSet(sub))
            for size in range(1, len(z) + 1)
            for sub in combinations(z.elements, size)
        ):
            return False
        # (b) interval partitions with at most min-many parts
        n = len(z)
        for parts in range(1, min(z.minimum, n) + 1):
            for cuts in combinations(range(1, n), parts - 1):
                bounds = (0,) + cuts + (n,)
                pieces = [FinSet(z.elements[bounds[i]: bounds[i + 1]]) for i in range(parts)]
                if not any(dense0(p) for p in pieces):
                    return False
        # (c) point colorings below min
        from itertools import product

        for values in product(range(z.minimum), repeat=n):
            coloring = dict(zip(z.elements, values))
            ok = any(
                dense0(FinSet(sub)) and len({coloring[v] for v in sub}) == 1
                for size in range(1, n + 1)
                for sub in combinations(z.elements, size)
            )
            if not ok:
                return False
        # (d) the bounding step is vacuous for the trivial sentence, but a
        # 0-dense subset must still exist
        return any(
            dense0(FinSet(sub))
            for size in range(1, n + 1)
            for sub in combinations(z.elements, size)
        )

    for z in [tiny(3, 4, 5, 6), tiny(3, 4, 5, 6, 7), tiny(4, 5, 6, 7), tiny(3, 5, 7, 9, 11)]:
        got = is_n_dense(z, 1, TOP, PSI_TRUE)
        assert got.value in ("true", "false")
        assert (got.value == "true") == oracle_dense1(z), z


def test_density_ceiling_reports_inconclusive():
    # 24 points have 2^24 two-colorings, past the ceiling of 2^20
    out = is_n_dense(FinSet.interval(3, 26), 1, TOP, RT1_2)
    assert out.value == "inconclusive"


def test_density_sampled_mode():
    out = is_n_dense(tiny(3, 4, 5, 6), 1, TOP, PSI_TRUE, Mode("sampled", seed=9, trials=6))
    assert out.value in ("inconclusive", "false")


def test_sampled_density_meets_the_subset_ceiling_before_drawing_a_coloring(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a coloring")

    monkeypatch.setattr(ColoringTable, "random", no_draws)
    statement = RtLikeStatement(3, 2, HOMOGENEOUS)
    out = is_n_dense(FinSet.interval(3, 122), 1, TOP, statement, Mode("sampled", seed=1, trials=1))
    assert out == Verdict("inconclusive", "subset space 2^120 exceeds ceiling 1048576")


def test_sampled_density_past_its_cap_answers_from_the_cap(monkeypatch):
    monkeypatch.setattr(ramsey, "SAMPLED_LEVEL_CAP", 0)
    mode = Mode("sampled", seed=9, trials=2)
    # [3,5] is not large at exponent 1, so it is dense at no level
    assert is_n_dense(tiny(3, 4, 5), 7, TOP, RT1_2, mode) == Verdict("false", "level 0 is a largeness check")
    assert is_n_dense(tiny(3, 4, 5, 6), 1, TOP, RT1_2, mode) == Verdict(
        "inconclusive", "sampled density is capped at level 0"
    )
    monkeypatch.setattr(ramsey, "SAMPLED_LEVEL_CAP", 2)
    for z in (tiny(3, 4, 5, 6), FinSet.interval(3, 12)):
        capped = is_n_dense(z, 2, TOP, RT1_2, mode)
        assert capped.value == "false"
        assert all(is_n_dense(z, m, TOP, RT1_2, mode) == capped for m in (3, 10, 3000))
    # exact mode keeps its own cap
    assert is_n_dense(tiny(3, 4, 5, 6), 3, TOP, RT1_2) == Verdict("inconclusive", "exact density is capped at level 2")


def test_sampled_density_keeps_its_refutations_through_the_levels():
    # `gamma dense --interval 3:6 --gamma true --mode sampled --trials 1`
    # took about x1.27 longer per level when every subset was asked again,
    # one level down, in a fresh call; --m 64 did not finish in 2 minutes
    z, mode = FinSet.interval(3, 6), Mode("sampled", seed=1729, trials=1)
    start = time.perf_counter()
    for m in (2, 14, 64):
        assert is_n_dense(z, m, TOP, PSI_TRUE, mode) == Verdict("false", ramsey._SAMPLED_REFUTATIONS["a"])
    assert time.perf_counter() - start < 1.0


@given(
    st.lists(st.integers(3, 9), min_size=1, max_size=5, unique=True),
    st.sampled_from((PSI_TRUE, RT1_2, RtLikeStatement(2, 2, HOMOGENEOUS))),
    st.sampled_from((None, 1, 2, 3)),
    st.integers(1, 2),
    st.integers(0, 2 ** 16),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_kept_refutations_never_refute_an_exactly_dense_set(points, statement, least, level, seed, trials):
    # Level 0 is largeness (None), under which no set within the ceilings
    # is exactly dense above level 0, or at least `least` points.  The level
    # lemma holds for any level-0 predicate, and these make many sets dense.
    z, mode = FinSet(tuple(sorted(points))), Mode("sampled", seed, trials)
    dense0 = ramsey._dense0 if least is None else (lambda y, sentence: len(y) >= least)
    with mock.patch.object(ramsey, "_dense0", dense0):
        if is_n_dense(z, level, TOP, statement).value == "true":
            assert is_n_dense(z, level, TOP, statement, mode).value != "false"
        # and each refutation kept on the way is one exact mode makes too
        kept = {}
        ramsey._sampled_failed_clause(z, level, TOP, statement, ramsey._source(mode), kept)
        assert all(is_n_dense(y, at, TOP, statement).value != "true" for y, at in kept.items())


def test_a_kept_refutation_answers_at_its_own_level_and_above():
    # with every set 0-dense, the only refutations are the ones kept
    z = tiny(3, 4, 5)

    def clause_at_level_1(kept_level):
        source = ramsey._source(Mode("sampled", 0, 2))
        kept = dict.fromkeys(ramsey._subsets(z), kept_level)
        return ramsey._sampled_failed_clause(z, 1, TOP, PSI_TRUE, source, kept)

    with mock.patch.object(ramsey, "_dense0", lambda y, sentence: True):
        assert clause_at_level_1(1) is None  # a level-1 refutation says nothing at level 0
        assert clause_at_level_1(0) == "a"


def test_density_rejects_a_negative_level_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(ramsey, "_source", lambda mode: calls.append(mode))
    for mode in (Mode(), Mode("sampled")):
        with pytest.raises(ValueError, match="level must be >= 0"):
            is_n_dense(tiny(3, 4, 5), -1, TOP, RT1_2, mode)
    assert calls == []


# the two sentences `tests/test_density_parity.py` pins
SENTENCES = (TOP, Pi03Sentence(parse("x < y or z < y")))


@st.composite
def coloring_challenges(draw):
    """A set of at most 5 points from [3,9], a pinned sentence, and a
    statement of arity 1-2 with 1-3 colors and a builtin psi0, or two colors
    and a random formula psi0."""
    psi0 = draw(st.sampled_from(BUILTIN_PSI0 + ("formula",)))
    arity = 2 if psi0 in PAIR_PSI0 else draw(st.integers(1, 2))
    colors = 2 if psi0 == "formula" else draw(st.integers(1, 3))
    # the product loops took 2-18 s over the 3^10 pair colorings of 5
    # points, and a formula psi0 is read on every subset of a solution, so
    # 5 points come with at most 2^10 colorings, or 2^5 under a formula
    most = 5 if colors ** comb(5, arity) <= (2 ** 5 if psi0 == "formula" else 2 ** 10) else 4
    if psi0 == "formula":
        psi0 = random_formula(random.Random(draw(st.integers(0, 2 ** 16))), [], draw(st.integers(1, 5)))
    points = draw(st.lists(st.integers(3, 9), min_size=1, max_size=most, unique=True))
    return FinSet(tuple(sorted(points))), draw(st.sampled_from(SENTENCES)), RtLikeStatement(arity, colors, psi0)


@given(coloring_challenges(), st.integers(0, 1), st.integers(0, 2 ** 16), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_the_counterexample_walk_answers_as_the_product_loops(case, level, seed, trials):
    z, sentence, statement = case
    # equal reasons: an exact false names the same least coloring, and a
    # sampled run makes the same draws in the same order
    for mode in (Mode(), Mode("sampled", seed, trials)):
        want = product_is_large_gamma(z, level, 1, sentence, statement, mode)
        assert is_large_gamma(z, level, 1, sentence, statement, mode) == want
        want = product_is_n_dense(z, level, sentence, statement, mode)
        assert is_n_dense(z, level, sentence, statement, mode) == want

    def dense0(y):
        return ramsey._dense0(y, sentence)

    # exact density meets clause (b) first, which refutes most of these
    # sets, so ask for the least counterexample of clauses (a) and (c) alone
    for challenge in (statement, RtLikeStatement(1, z.minimum, HOMOGENEOUS)):
        want = next((f for f in ProductChallenges().colorings(z, challenge)
                     if not any(challenge.solution_ok(f, y) and dense0(y) for y in ramsey._subsets(z))), None)
        assert ramsey._EXHAUSTIVE.counterexample(z, challenge, lambda: ramsey._subsets(z), dense0) == want


# -- transitive extraction ------------------------------------------------------


def test_em_extract_base_case():
    f = ColoringTable.random(X38, 2, 2, random.Random(1))
    out = em_extract(X38, f, 0, TOP)
    assert out.status == FOUND and len(out.subset) == 1


def test_em_extract_level_one_scaled():
    rng = random.Random(8)
    hits = 0
    for _ in range(25):
        f = ColoringTable.random(X38, 2, 2, rng)
        out = em_extract(X38, f, 1, TOP, Budget(400_000), EmConstants.scaled(1))
        if out.status == FOUND:
            hits += 1
            assert verify_certificate(out.subset, out.certificate, LargenessSpec(1, 1, TOP))
        else:
            assert out.detail
    assert hits > 0


def test_em_extract_transitive_instance():
    f = ColoringTable.from_function(X38, 2, 2, lambda x, y: 1)
    out = em_extract(X38, f, 1, TOP, Budget(400_000), EmConstants.scaled(1))
    assert out.status == FOUND


@pytest.mark.parametrize("check", ["is_transitive", "verify_certificate"])
def test_em_extract_rechecks_its_output(monkeypatch, check):
    f = ColoringTable.from_function(X38, 2, 2, lambda x, y: 1)
    monkeypatch.setattr(ramsey, check, lambda *args, **kwargs: False)
    with pytest.raises(RuntimeError):
        em_extract(X38, f, 1, TOP, Budget(400_000), EmConstants.scaled(1))


def test_em_extract_answers_a_set_not_plainly_large_before_its_default_constants(monkeypatch):
    # a subset large at n would make the set plainly large at n; the
    # faithful constants at n = 30000 would take seconds to build
    x = FinSet.interval(3, 8)
    f = ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    with monkeypatch.context() as patch:
        patch.setattr(EmConstants, "faithful", mock.Mock(side_effect=AssertionError("built")))
        out = em_extract(x, f, 30_000, TOP)
        assert (out.status, out.detail) == (ABSENT, "plain largeness at level 30000")
        assert em_extract(FinSet(()), f, 0, TOP).detail == "plain largeness at level 0"
    # the same set at an exponent where it is plainly large builds them
    assert em_extract(x, f, 1, TOP).detail.startswith("grouping at level 1 cannot start")


def test_em_extract_cannot_walk_only_minimal_blocks():
    # Under the scaled constants l0 is exponent 0, so every minimal block is
    # a singleton, and level-1 recursion into a singleton is always absent:
    # the same join that succeeds on the canonical blocks of [3,62] fails on
    # the minimal blocks starting at the same points.
    x = FinSet.interval(3, 62)
    f = ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    constants = EmConstants.scaled(2)
    canonical = [FinSet.interval(lo, 2 * lo) for lo in (3, 7, 15, 31)]
    out = ramsey._em_join(canonical, f, 2, TOP, Budget(None), constants)
    assert out.status == FOUND and len(out.subset) == 60
    singletons = [FinSet((v,)) for v in (3, 4, 5, 6)]
    out = ramsey._em_join(singletons, f, 2, TOP, Budget(None), constants)
    assert out.status == ABSENT and out.detail == "recursion into a block at level 2"


def test_em_extract_rejects_a_negative_exponent():
    f = ColoringTable.from_function(X38, 2, 2, lambda x, y: 1)
    with pytest.raises(PreconditionError, match=">= 0"):
        em_extract(X38, f, -1, TOP, Budget(1000))


def test_em_extract_faithful_constants_fail_honestly():
    f = ColoringTable.from_function(X38, 2, 2, lambda x, y: 0)
    out = em_extract(X38, f, 1, TOP, Budget(100_000), EmConstants.faithful(1))
    assert out.status in (ABSENT, "exhausted")
    assert "grouping" in out.detail


@pytest.mark.parametrize("hi,status", [(20, EXHAUSTED), (5, ABSENT)])
def test_em_extract_answers_absent_only_where_no_set_is_large(hi, status):
    # the faithful walk cannot start on [3,20]: it is large at exponent 1,
    # so the walk decided nothing; no subset of [3,5] is large at all, which
    # plain largeness answers before any walk
    x = FinSet.interval(3, hi)
    f = ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    out = em_extract(x, f, 1, TOP, Budget(100_000), EmConstants.faithful(1))
    stage = {EXHAUSTED: "grouping at level 1", ABSENT: "plain largeness at level 1"}[status]
    assert out.status == status and out.detail.startswith(stage)


@pytest.mark.parametrize("n", [2, 3])
def test_em_extract_answers_plain_largeness_under_any_constants(n):
    # [3,38] is the least interval above 3 plainly large at 2, so none of
    # these holds a subset large at n, though the scaled walk spends its
    # 200 steps on most of them without deciding that
    for hi in (8, 11, 15, 37):
        x = FinSet.interval(3, hi)
        f = ColoringTable.from_function(x, 2, 2, lambda a, b: (a + b) % 2)
        out = em_extract(x, f, n, TOP, Budget(200), EmConstants.scaled(n))
        assert (out.status, out.detail, out.steps) == (ABSENT, f"plain largeness at level {n}", 0)


def test_em_level_is_exhausted_when_a_join_is(monkeypatch):
    # [3,6] has one grouping at the scaled constants, four singletons, so
    # the walk ends without a ceiling or the budget, and only the join's
    # outcome can leave the level undecided
    x = FinSet.interval(3, 6)
    f = ColoringTable.from_function(x, 2, 2, lambda a, b: 0)
    joins = []

    def join(status):
        def run(blocks, *args):
            joins.append(blocks)
            return SearchOutcome(status, detail="a patched join")
        return run

    for status, want in [(ABSENT, ABSENT), (EXHAUSTED, EXHAUSTED)]:
        monkeypatch.setattr(ramsey, "_em_join", join(status))
        out = em_extract(x, f, 1, TOP, Budget(10_000), EmConstants.scaled(1))
        assert (out.status, out.detail) == (want, "a patched join")
    assert joins == [tuple(FinSet((v,)) for v in range(3, 7))] * 2


def test_em_constants_faithful_values():
    c = EmConstants.faithful(3)
    assert c.block_exponents == (1, FAITHFUL_BASE, FAITHFUL_BASE ** 2)
    assert c.transversal == LargenessSpec(6, 1, TOP)


# -- interval recoloring ---------------------------------------------------------


def _constant_transitive(domain, color):
    return ColoringTable.from_function(domain, 2, 2, lambda x, y: color)


def test_q_coloring_constant_instance():
    # with a constant coloring the interval must be short enough that no
    # pair spans a stretch at the top exponent, else no case applies
    z = FinSet.interval(3, 20)
    f = _constant_transitive(z, 0)
    q = ads_q_coloring(z, f, 2, TOP)
    # color-0 stretches only: cases 4k and 4k+1, never 4k+2/4k+3
    assert set(q.table) <= {0, 1, 4, 5}
    f1 = _constant_transitive(z, 1)
    q1 = ads_q_coloring(z, f1, 2, TOP)
    assert set(q1.table) <= {2, 3, 6, 7}


def test_q_coloring_case_values():
    z = FinSet.interval(3, 6)
    f = _constant_transitive(z, 0)
    q = ads_q_coloring(z, f, 1, TOP)
    # a one-step interval admits only the singleton stretch: case 4*0
    assert q(3, 4) == 0
    # [3, 6) holds {3, 4}, one element past exponent 0: case 4*0+1
    assert q(3, 6) == 1


def test_q_coloring_partiality_is_reported():
    # a pair spanning a stretch at the top exponent has no case: with a
    # constant coloring on a long interval that is unavoidable
    z = FinSet.interval(3, 20)
    f = _constant_transitive(z, 0)
    with pytest.raises(QTotalityError):
        ads_q_coloring(z, f, 1, TOP)


def test_q_coloring_successor_readings_agree_here():
    z = FinSet.interval(3, 6)
    f = _constant_transitive(z, 0)
    q_max = ads_q_coloring(z, f, 1, TOP, successor="drop_max")
    q_min = ads_q_coloring(z, f, 1, TOP, successor=DROP_MIN)
    assert len(q_max.table) == len(q_min.table)
    # both are valid readings; on this instance they agree
    assert q_max.table == q_min.table


def test_q_coloring_requires_transitive():
    z = FinSet((3, 4, 5))
    table = {(3, 4): 0, (4, 5): 0, (3, 5): 1}
    f = ColoringTable.from_function(z, 2, 2, lambda x, y: table[(x, y)])
    with pytest.raises(PreconditionError):
        ads_q_coloring(z, f, 1, TOP)


def test_q_coloring_totality_failure_under_hostile_sentence():
    z = FinSet.interval(3, 10)
    f = _constant_transitive(z, 0)
    never = Pi03Sentence(parse("y < x"))
    with pytest.raises(QTotalityError):
        ads_q_coloring(z, f, 1, never)


def test_q_cases_match_predicate_evaluations():
    # recompute the stretch predicates for every pair and check that the
    # assigned case is the unique one its predicate combination allows:
    # 4k needs long-at-k but not one-past-k; 4k+1 needs one-past-k but not
    # long-at-k+1 (so no pair can satisfy both cases at once)
    from omegalarge.ramsey import interval_long

    z = FinSet.interval(3, 20)
    for color in (0, 1):
        f = _constant_transitive(z, color)
        q = ads_q_coloring(z, f, 2, TOP)
        for (v, w), value in zip(q.tuples(), q.table):
            k, rem = divmod(value, 4)
            i, extra = divmod(rem, 2)
            assert i == color
            power_k = interval_long(z, f, TOP, v, w, i, k)
            succ_k = interval_long(z, f, TOP, v, w, i, k, succ=True)
            power_next = interval_long(z, f, TOP, v, w, i, k + 1)
            assert power_k
            if extra == 0:
                assert not succ_k
            else:
                assert succ_k and not power_next
            # the two cases at level k are mutually exclusive by definition
            assert not ((power_k and not succ_k) and succ_k)


def test_ads_q_reads_an_exhausted_budget_as_undecided():
    # an exhausted stretch search decides no pair, so the recoloring is
    # neither total nor partial; a budget that suffices changes nothing
    z = FinSet.interval(3, 12)
    f = _constant_transitive(z, 0)
    for limit in (1, 3, 10, 30, 100):
        with pytest.raises(BudgetExceeded):
            ads_q_coloring(z, f, 2, TOP, budget=Budget(limit))
    assert ads_q_coloring(z, f, 2, TOP, budget=Budget(10_000)) == ads_q_coloring(z, f, 2, TOP)


def test_ads_extract_finds_homogeneous():
    z = FinSet.interval(3, 38)
    f = _constant_transitive(z, 1)
    out = ads_extract(z, f, 1, TOP)
    assert out.status == FOUND
    assert verify_certificate(out.subset, out.certificate, LargenessSpec(1, 1, TOP))


# -- bounds table ----------------------------------------------------------------


def test_bounds_row_one():
    row = bounds_table(1)[1]
    assert row.pigeonhole == 2
    assert row.ads == 8
    assert row.lower == 1
    assert row.em == 16777217
    assert row.rt22 == (16 ** 6 + 1) ** 8
    assert row.grouping_chain == (2, 5, 21, 512)


def test_bounds_row_zero():
    row = bounds_table(0)[0]
    assert row.em == 1
    assert row.rt22 == (16 ** 6 + 1) ** 4
    assert row.lower == 0


def test_bounds_row_refuses_an_entry_past_the_digit_limit_before_computing_it():
    # 16^3571 has 4300 digits and 16^3572 has 4302
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(str(ramsey.bounds_row(0, 3571).grouping_chain[3])) == 4300
        with pytest.raises(ValueError, match=r"16\^3572 has more than 4301 digits, past the limit of 4300"):
            ramsey.bounds_row(0, 3572)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"16\^1000000000 has more than"):
            ramsey.bounds_row(0, 10 ** 9)
        assert time.perf_counter() - start < 0.1
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_inequalities():
    rows = bounds_table(50)
    for row in rows[1:]:
        assert row.lower < row.pigeonhole <= row.em


def test_bounds_tsv_shape():
    text = bounds_tsv(bounds_table(3))
    lines = text.strip().splitlines()
    assert lines[0].startswith("n\tpigeonhole")
    assert len(lines) == 5
    ads_column = [int(line.split("\t")[7]) for line in lines[1:]]
    assert ads_column == [4, 8, 12, 16]
