"""Command-line entry point.

Exit codes: 0 definite truth or success, 1 definite falsity or proven
absence, 2 inconclusive or out of budget, 3 usage or input errors, 4
internal errors.  With --format json a machine-readable result object is
printed for every exit but 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

# Only the modules behind `large check` load with the CLI; a handler that
# needs extract, grouping, lowerbound or ramsey imports it when it runs.
from .budget import Budget, BudgetExceeded
from .formula import (
    BUILTIN_PSI0,
    TOP,
    CeilingExceeded,
    Pi03Sentence,
    PrefixShapeError,
    PrefixedSentence,
    QuantStep,
    RtLikeStatement,
    SecondOrderParam,
    compile_formula,
    formula_text,
    parse,
    weakly_pi04_transform,
)
from .largeness import (
    Certificate,
    LargenessSpec,
    PreconditionError,
    SizeOverflow,
    _check_admissible,
    check_large,
    minimal_large_interval,
    t_apart,
    verify_certificate,
)
from .record import Record
from .sets import ColoringTable, FinSet, SparsityPolicy


class UsageError(ValueError):
    pass


class Outcome(Record):
    code: int
    payload: dict
    human: str


# the exit code of each status a library call answers with
EXIT = {
    "found": 0, "absent": 1, "exhausted": 2,  # grouping and subset searches
    "true": 0, "false": 1, "inconclusive": 2,  # Γ-largeness and density verdicts
    "confirmed": 0, "counterexample": 1, "consistent": 2,  # lower-bound reports
}


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def load_set(args) -> FinSet:
    if args.interval is None:
        return read_set(args.set)
    what = f"bad --interval {args.interval!r}"
    try:
        lo, hi = map(int, args.interval.split(":"))
    except ValueError as err:
        raise UsageError(f"{what}: expected LO:HI") from err
    if lo > hi:  # a typo, not the empty set
        raise UsageError(f"{what}: LO > HI")
    return read_input(what, lambda: FinSet.interval(lo, hi))


def read_text(path: str) -> str:
    """The whole file as UTF-8; one that cannot be opened or decoded is a
    usage error whose message starts with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"{path}: {err}") from err


def write_text(path: str, text: str) -> None:
    """Write the whole file as UTF-8; one that cannot be written is a usage
    error whose message starts with the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"{path}: {err}") from err


def read_set(path: str) -> FinSet:
    text = read_text(path)
    try:
        return FinSet.parse(text, source=path)
    except ValueError as err:
        raise UsageError(str(err)) from err
    except RecursionError as err:
        raise UsageError(f"{path}: nested too deeply to read") from err


def read_input(what: str, build):
    """build(), with a ValueError or KeyError, or input nested too deeply
    to read, as a usage error that starts with `what`."""
    try:
        return build()
    except (ValueError, KeyError) as err:
        raise UsageError(f"{what}: {err}") from err
    except RecursionError as err:
        raise UsageError(f"{what}: nested too deeply to read") from err


def read_json(path: str, reader):
    """reader(the text of the file at path), faults named by the path."""
    text = read_text(path)
    return read_input(path, lambda: reader(text))


def load_sentence(args) -> Pi03Sentence:
    """The sentence of --theta-file or --theta (absent: top); one equal to
    TOP (θ `true`, a = 0, empty A) is TOP itself, so bare-count requirements
    read as such.  --param-a and --param-A set a --theta formula's a and A."""
    text, own = args.theta, args.theta_file is not None
    if own or text in (None, "top"):
        if (args.param_a, args.param_A) != (None, None):
            where = "--theta-file, which carries its own a and A" if own else "top"
            raise UsageError(f"--param-a and --param-A apply to a --theta formula, not to {where}")
        if not own:
            return TOP
        sentence = read_json(args.theta_file, Pi03Sentence.from_json)
    else:
        param = read_input("bad --param-A", lambda: SecondOrderParam(args.param_A or ""))
        sentence = read_input("bad --theta", lambda: Pi03Sentence(parse(text), args.param_a or 0, param))
    return TOP if sentence == TOP else sentence


def load_lspec(text: str, sentence: Pi03Sentence) -> LargenessSpec:
    """card:M, or omega:N[:K][:top] largeness forms."""
    parts = text.split(":")
    try:
        if parts[0] == "card":
            return LargenessSpec.card(natural(parts[1]))
        if parts[0] == "omega":
            exponent = natural(parts[1])
            multiplier = positive(parts[2]) if len(parts) > 2 and parts[2] else 1
            sent = TOP if parts[-1] == "top" else sentence
            return LargenessSpec(exponent, multiplier, sent)
    except (IndexError, ValueError) as err:
        raise UsageError(f"bad largeness requirement {text!r}") from err
    raise UsageError(f"bad largeness requirement {text!r}; use card:M or omega:N[:K][:top]")


# --gamma's presets, (arity, colors, ψ0); `custom` reads --arity, --colors, --psi0
GAMMA_PRESETS = {
    "rt22": (2, 2, "homogeneous"),
    "rt12": (1, 2, "homogeneous"),
    "em": (2, 2, "transitive"),
    "ads-asc": (2, 2, "monotone-ascending"),
    "ads-desc": (2, 2, "monotone-descending"),
    "true": (1, 1, "true"),
}


def make_statement(args) -> RtLikeStatement:
    name = args.gamma
    custom = (args.arity, args.colors, args.psi0)
    if name == "custom":
        arity, colors, psi0 = (d if v is None else v for v, d in zip(custom, (2, 2, "homogeneous")))
    elif custom != (None, None, None):
        raise UsageError(f"--arity, --colors and --psi0 apply to --gamma custom, not to the preset {name!r}")
    else:
        arity, colors, psi0 = GAMMA_PRESETS[name]
    if psi0 not in BUILTIN_PSI0:
        psi0 = read_input("bad --psi0", functools.partial(parse, psi0))
    return read_input("bad statement", lambda: RtLikeStatement(arity, colors, psi0))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_large_check(args, x, sentence, budget) -> Outcome:
    spec = LargenessSpec(args.n, args.k, sentence)
    _check_admissible(x, sentence)  # verify_certificate would only reject the set
    if args.verify is not None:
        if (args.cert_out, args.budget) != (None, None):
            raise UsageError("--cert-out and --budget apply to a search, not to --verify")
        cert = read_json(args.verify, Certificate.from_json)
        ok = verify_certificate(x, cert, spec, paranoid=args.paranoid)
        return Outcome(
            0 if ok else 1,
            {"verified": ok},
            "certificate accepted" if ok else "certificate rejected",
        )
    cert = check_large(x, spec, budget=budget)
    if cert is None:
        return Outcome(1, {"result": "not-large"}, "not large: no decomposition exists")
    if not verify_certificate(x, cert, spec, paranoid=args.paranoid):
        raise RuntimeError("the search returned a certificate that fails re-verification")
    if args.cert_out is not None:
        write_text(args.cert_out, cert.to_json())
    return Outcome(0, {"result": "large", "certificate": cert.to_obj()}, "large: certificate found")


def cmd_large_minimal(args) -> Outcome:
    out = minimal_large_interval(args.x, args.n, budget=args.budget)
    payload = {"elements": [str(v) for v in out], "cardinality": len(out), "max": str(out.maximum)}
    if args.out is not None:
        write_text(args.out, out.to_lines())
    return Outcome(0, payload, f"minimal interval [{out.minimum}, {out.maximum}], {len(out)} elements")


def cmd_large_pigeonhole(args, x, f, sentence, budget) -> Outcome:
    from .extract import CountingFailure, ExtractionFailure, pigeonhole_extract

    policy = SparsityPolicy(args.sparsity)
    try:
        out = pigeonhole_extract(x, f, args.b, sentence, policy, strict=args.strict, budget=budget)
    except CountingFailure as err:
        return Outcome(2, {"result": "counting-failure", "reason": str(err)}, str(err))
    except ExtractionFailure as err:
        return Outcome(1, {"result": "no-witness", "reason": str(err)}, str(err))
    payload = {
        "subset": [str(v) for v in out.homogeneous],
        "color": out.color,
        "used_fallback": out.used_fallback,
        "counting_inequality_held": out.counting_inequality_held,
        "certificate": out.certificate.to_obj(),
    }
    return Outcome(0, payload, f"homogeneous subset of color {out.color}, {len(out.homogeneous)} elements")


def cmd_large_decompose(args, x, sentence, budget) -> Outcome:
    from .extract import decompose_mixed

    out = decompose_mixed(x, args.n, args.m, sentence, budget=budget)
    payload = {
        "blocks": [[str(v) for v in b] for b in out.blocks],
        "minima": [str(v) for v in out.minima],
    }
    return Outcome(0, payload, f"{len(out.blocks)} apart blocks; minima set of {len(out.minima)}")


def cmd_large_fuse(args, sentence, budget) -> Outcome:
    from .extract import fuse

    sets = [read_set(p) for p in args.blocks]
    out = fuse(sets[0], sets[1:], args.a, args.b, sentence, budget=budget)
    payload = {
        "fused": [str(v) for v in out.fused],
        "certificate": out.certificate.to_obj(),
    }
    return Outcome(0, payload, f"fused set of {len(out.fused)} elements at exponent {args.a + args.b}")


def cmd_apart(args, sentence) -> Outcome:
    ok = t_apart(read_set(args.x), read_set(args.y), sentence)
    return Outcome(0 if ok else 1, {"apart": ok}, "apart" if ok else "not apart")


def cmd_grouping_find(args, x, f, sentence, budget) -> Outcome:
    from .grouping import ABSENT, FOUND, find_grouping

    l0 = load_lspec(args.l0, sentence)
    l1 = load_lspec(args.l1, sentence)
    out = find_grouping(x, f, l0, l1, sentence, budget)
    code = EXIT[out.status]
    if out.status == FOUND:
        payload = {"result": "found", "blocks": [[str(v) for v in b] for b in out.witness.blocks]}
        if args.witness_out is not None:
            write_text(args.witness_out, out.witness.to_json())
        return Outcome(code, payload, f"grouping with {len(out.witness.blocks)} blocks")
    if out.status == ABSENT:
        return Outcome(code, {"result": "absent", "detail": out.detail}, "no grouping exists")
    return Outcome(code, {"result": "exhausted", "steps": out.steps}, "budget exhausted")


def cmd_grouping_check(args, f, sentence) -> Outcome:
    from .grouping import GroupingWitness, MalformedWitness, is_grouping

    witness = read_json(args.witness, lambda text: GroupingWitness.from_json(text, f))
    l0 = load_lspec(args.l0, sentence)
    l1 = load_lspec(args.l1, sentence)
    try:
        ok = is_grouping(witness, l0, l1, sentence)
    except MalformedWitness as err:
        raise UsageError(f"malformed witness: {err}") from err
    except CeilingExceeded as err:
        return Outcome(2, {"result": "inconclusive", "reason": str(err)}, f"inconclusive: {err}")
    return Outcome(0 if ok else 1, {"grouping": ok}, "valid grouping" if ok else "not a grouping")


def cmd_gamma(args, x, sentence) -> Outcome:
    from .ramsey import Mode, is_large_gamma, is_n_dense

    statement = make_statement(args)
    if args.mode == "exact" and (args.seed, args.trials) != (None, None):
        raise UsageError("--seed and --trials apply to --mode sampled, not to exact")
    # Mode's own seed and trials stand in for an absent --seed or --trials
    mode = Mode(args.mode, **{k: getattr(args, k) for k in ("seed", "trials") if getattr(args, k) is not None})
    if args.sub == "large":
        v = is_large_gamma(x, args.r, args.s, sentence, statement, mode)
    else:
        v = is_n_dense(x, args.m, sentence, statement, mode)
    return Outcome(EXIT[v.value], {"verdict": v.value, "reason": v.reason}, f"{v.value}: {v.reason}")


def cmd_em_extract(args, x, f, sentence, budget) -> Outcome:
    from .grouping import FOUND
    from .ramsey import EmConstants, em_extract

    constants = EmConstants.scaled(max(args.n, 1)) if args.scaled else EmConstants.faithful(max(args.n, 1))
    out = em_extract(x, f, args.n, sentence, budget, constants)
    code = EXIT[out.status]
    if out.status == FOUND:
        payload = {
            "result": "found",
            "subset": [str(v) for v in out.subset],
            "certificate": out.certificate.to_obj(),
        }
        return Outcome(code, payload, f"transitive subset of {len(out.subset)} elements")
    return Outcome(code, {"result": out.status, "stage": out.detail}, f"{out.status} at stage: {out.detail}")


def cmd_ads_q(args, x, f, sentence, budget) -> Outcome:
    from .ramsey import QTotalityError, ads_q_coloring

    try:
        q = ads_q_coloring(x, f, args.n, sentence, successor=args.successor, budget=budget)
    except QTotalityError as err:
        return Outcome(1, {"result": "partial", "reason": str(err)}, str(err))
    payload = json.loads(q.to_json())
    if args.out is not None:
        write_text(args.out, q.to_json())
    return Outcome(0, {"result": "total", "coloring": payload}, f"recoloring with {q.colors} cases")


def cmd_ads_extract(args, x, f, sentence, budget) -> Outcome:
    from .grouping import FOUND
    from .ramsey import ads_extract

    out = ads_extract(x, f, args.n, sentence, budget)
    code = EXIT[out.status]
    if out.status == FOUND:
        payload = {"result": "found", "subset": [str(v) for v in out.subset]}
        return Outcome(code, payload, f"homogeneous subset of {len(out.subset)} elements")
    return Outcome(code, {"result": out.status}, out.status)


def cmd_lowerbound_tree(args) -> Outcome:
    from .lowerbound import tree

    t = tree(args.base, args.rank)
    cap = args.budget
    card, top = t.cardinality(cap), t.max_value(cap)
    payload = {"base": str(args.base), "rank": args.rank, "cardinality": str(card), "max": str(top)}
    human = f"tree base={args.base} rank={args.rank} cardinality={card} max={top}"
    if args.materialize:
        # within the cap: the cardinality above did not overflow it
        mat = t.materialize(budget=cap)
        payload["elements"] = [str(v) for v in mat]
        human += f"\n{' '.join(str(v) for v in mat)}"
    if args.export_theta is not None:
        sentence = t.export_sentence()
        write_text(args.export_theta, sentence.to_json())
        human += f"\nseparation sentence written to {args.export_theta}"
    return Outcome(0, payload, human)


def cmd_lowerbound_fx(args) -> Outcome:
    from .lowerbound import tree

    t = tree(args.base, args.rank)
    if args.value is not None:
        try:
            color = t.parity_color(args.value)
        except PreconditionError as err:
            raise UsageError(str(err)) from err
        return Outcome(0, {"value": str(args.value), "color": color}, f"f({args.value}) = {color}")
    mat = t.materialize(budget=args.budget)
    colors = {str(v): t.parity_color(v) for v in mat}
    human = " ".join(f"{v}:{c}" for v, c in colors.items())
    return Outcome(0, {"colors": colors}, human)


def cmd_lowerbound_verify(args, budget) -> Outcome:
    from .lowerbound import CONFIRMED, COUNTEREXAMPLE, tree, verify_lower_bound

    report = verify_lower_bound(tree(args.base, 2 * args.n - 1), mode=args.mode, budget=budget)
    payload = {
        "status": report.status,
        "complete": report.complete,
        "checked_subsets": report.checked_subsets,
        "sub_instances": report.sub_instances,
        "skipped": report.skipped,
        "detail": report.detail,
    }
    if report.status == CONFIRMED:
        human = "confirmed: no homogeneous large subset"
    elif report.status == COUNTEREXAMPLE:
        payload["witness"] = [str(v) for v in report.witness]
        human = "counterexample found"
    else:
        human = f"consistent with the claim ({report.detail})"
    return Outcome(EXIT[report.status], payload, human)


def cmd_bounds_table(args) -> Outcome:
    from .ramsey import BOUNDS_TSV_HEADER, bounds_line, bounds_row

    rows, lines = [], [BOUNDS_TSV_HEADER]
    try:  # row by row: the first row that cannot print ends the table
        for n in range(args.n_max + 1):
            rows.append(bounds_row(n, args.k))
            lines.append(bounds_line(rows[-1]))
    except ValueError as err:  # an entry past the interpreter's int-to-str digit limit
        reason = f"a table entry is too long to print: {err}"
        return Outcome(2, {"result": "overflow", "reason": reason}, f"overflow: {reason}")
    human = "\n".join(lines)
    payload = {
        "rows": [
            {
                "n": r.n,
                "pigeonhole": str(r.pigeonhole),
                "grouping_chain": [str(v) for v in r.grouping_chain],
                "em": str(r.em),
                "ads": str(r.ads),
                "rt22": str(r.rt22),
                "lower": str(r.lower),
            }
            for r in rows
        ]
    }
    return Outcome(0, payload, human)


def cmd_formula_parse(args) -> Outcome:
    phi = read_input("bad formula", lambda: parse(args.text))
    return Outcome(0, {"canonical": formula_text(phi)}, formula_text(phi))


def cmd_formula_eval(args) -> Outcome:
    phi = read_input("bad formula", lambda: parse(args.text))
    env = {}
    if args.env:
        for item in args.env.split(","):
            try:
                name, value = item.split("=")
                env[name.strip()] = int(value)
            except ValueError as err:
                raise UsageError(f"bad --env entry {item!r}") from err
    param = read_input("bad --param-A", lambda: SecondOrderParam(args.param_A or ""))
    overflowed = []

    def member(i: int) -> bool:
        # records each query past the coded length, in evaluation order
        if i >= param.length:
            overflowed.append(i)
        return param.member(i)

    out = read_input(
        "bad formula", lambda: compile_formula(phi, list(env))(args.param_a, member)(*env.values())
    )
    for pos in overflowed:
        print(f"warning: membership query at {pos} is beyond the coded length of A", file=sys.stderr)
    return Outcome(
        0 if out else 1,
        {"value": out, "beyond_length_queries": overflowed},
        "true" if out else "false",
    )


def cmd_formula_weaken(args) -> Outcome:
    if args.file is not None:
        sentence = read_json(args.file, PrefixedSentence.from_json)
    else:
        matrix = read_input("bad --text", lambda: parse(args.text))
        sentence = PrefixedSentence(
            (QuantStep("exists", "x"), QuantStep("forall", "y"), QuantStep("exists", "z")),
            matrix,
        )
    try:
        out = weakly_pi04_transform(sentence)
    except PrefixShapeError as err:
        raise UsageError(str(err)) from err
    if args.out is not None:
        write_text(args.out, out.to_json())
    return Outcome(0, {"sentence": json.loads(out.to_json())}, out.text())


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def natural(text: str) -> int:
    """Argument type of an exponent, count or rank: an integer >= 0.  A value
    out of range is a usage error (exit 3): "invalid natural value: '-1'"."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive(text: str) -> int:
    """Argument type of a multiplier, or of an exponent that must be at least
    1 (`lowerbound verify --n`, whose tree has rank 2n - 1): an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _size_cap(p, default: int):
    """--budget read as a cap on a size rather than on search steps: absent
    means `default`, and 0 caps every size at 0."""
    p.add_argument("--budget", type=natural, default=default, help=f"size cap (default {default})")


def _finish(p, handler, set_input=False, theta=True, budget=True, coloring=False):
    """The options a subcommand shares with others, after its own, and its
    handler, with the names of the inputs main builds from those options
    for it (see INPUTS).  --set/--interval, for the one set load_set reads,
    are one required group and come last: only --help and the candidates of
    an ambiguous option prefix are listed in that order."""
    p.add_argument("--format", choices=["human", "json"], default="human")
    if budget:
        p.add_argument("--budget", type=natural, default=None, help="search step budget")
    if theta:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--theta", help="apartness formula text, or 'top' (the default)")
        group.add_argument("--theta-file", help="JSON sentence file, with its own a and A")
        p.add_argument("--param-a", type=natural, help="a of a --theta formula (default 0)")
        p.add_argument("--param-A", help="A of a --theta formula as bits (default empty)")
    if coloring:
        p.add_argument("--coloring", required=True, help="coloring table JSON file")
    if set_input:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--set", help="set file: one decimal per line, or a JSON array")
        group.add_argument("--interval", help="LO:HI shorthand instead of --set")
    declared = {"x": set_input, "f": coloring, "sentence": theta, "budget": budget}
    p.set_defaults(handler=handler, inputs=[name for name, on in declared.items() if on])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs far more than a
    parse, and parse_args keeps no state in it between calls."""
    root = _Parser(prog="omegalarge", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    large = sub.add_parser("large", help="largeness checks and extractors").add_subparsers(
        dest="sub", required=True
    )
    p = large.add_parser("check")
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--k", type=positive, default=1)
    p.add_argument("--paranoid", action="store_true", help="all-pairs apartness in verification")
    p.add_argument("--cert-out", help="write the certificate JSON here")
    p.add_argument("--verify", help="verify this certificate file instead of searching")
    _finish(p, cmd_large_check, set_input=True)

    p = large.add_parser("minimal")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--out")
    _size_cap(p, 10 ** 6)
    _finish(p, cmd_large_minimal, theta=False, budget=False)

    p = large.add_parser("pigeonhole")
    p.add_argument("--b", type=natural, required=True)
    p.add_argument("--sparsity", choices=[s.value for s in SparsityPolicy], default="none")
    p.add_argument("--strict", action="store_true", help="fail on counting failure instead of falling back")
    _finish(p, cmd_large_pigeonhole, set_input=True, coloring=True)

    p = large.add_parser("decompose")
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--m", type=natural, required=True)
    _finish(p, cmd_large_decompose, set_input=True)

    p = large.add_parser("fuse")
    p.add_argument("--blocks", nargs="+", required=True, help="block set files, increasing")
    p.add_argument("--a", type=natural, required=True)
    p.add_argument("--b", type=natural, required=True)
    _finish(p, cmd_large_fuse)

    p = sub.add_parser("apart")
    p.add_argument("--x", required=True, help="left set file")
    p.add_argument("--y", required=True, help="right set file")
    _finish(p, cmd_apart, budget=False)

    grouping = sub.add_parser("grouping").add_subparsers(dest="sub", required=True)
    p = grouping.add_parser("find")
    p.add_argument("--l0", required=True, help="block requirement: card:M or omega:N[:K][:top]")
    p.add_argument("--l1", required=True, help="transversal requirement")
    p.add_argument("--witness-out")
    _finish(p, cmd_grouping_find, set_input=True, coloring=True)

    p = grouping.add_parser("check")
    p.add_argument("--witness", required=True)
    p.add_argument("--l0", required=True)
    p.add_argument("--l1", required=True)
    _finish(p, cmd_grouping_check, budget=False, coloring=True)

    gamma = sub.add_parser("gamma").add_subparsers(dest="sub", required=True)
    for name in ("large", "dense"):
        p = gamma.add_parser(name)
        p.add_argument("--gamma", choices=[*GAMMA_PRESETS, "custom"], default="custom")
        p.add_argument("--arity", type=natural, help="--gamma custom only (default 2)")
        p.add_argument("--colors", type=natural, help="--gamma custom only (default 2)")
        p.add_argument("--psi0", help="--gamma custom only (default homogeneous)")
        p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
        p.add_argument("--trials", type=natural, help="draws per challenge of sampled mode")
        p.add_argument("--seed", type=int, help="seed of the sampled trials")
        if name == "large":
            p.add_argument("--r", type=natural, required=True)
            p.add_argument("--s", type=positive, default=1)
        else:
            p.add_argument("--m", type=natural, required=True)
        _finish(p, cmd_gamma, set_input=True, budget=False)

    em = sub.add_parser("em").add_subparsers(dest="sub", required=True)
    p = em.add_parser("extract")
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--scaled", action="store_true", help="desk-scale internal constants")
    _finish(p, cmd_em_extract, set_input=True, coloring=True)

    ads = sub.add_parser("ads").add_subparsers(dest="sub", required=True)
    p = ads.add_parser("q")
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--successor", choices=["drop_max", "drop_min"], default="drop_max")
    p.add_argument("--out")
    _finish(p, cmd_ads_q, set_input=True, coloring=True)

    p = ads.add_parser("extract")
    p.add_argument("--n", type=natural, required=True)
    _finish(p, cmd_ads_extract, set_input=True, coloring=True)

    lower = sub.add_parser("lowerbound").add_subparsers(dest="sub", required=True)
    p = lower.add_parser("tree")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--rank", type=natural, required=True)
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--export-theta", help="write the separation sentence JSON here")
    _size_cap(p, 10 ** 6)
    _finish(p, cmd_lowerbound_tree, theta=False, budget=False)

    p = lower.add_parser("fx")
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--rank", type=natural, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--value", type=int, help="one element; omit for the whole table")
    _size_cap(group, 10 ** 5)
    _finish(p, cmd_lowerbound_fx, theta=False, budget=False)

    p = lower.add_parser("verify")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--mode", choices=["exhaustive", "pruned"], default="exhaustive")
    _finish(p, cmd_lowerbound_verify, theta=False)

    p = sub.add_parser("bounds-table")
    p.add_argument("--n-max", type=natural, required=True)
    p.add_argument("--k", type=natural, default=2)
    _finish(p, cmd_bounds_table, theta=False, budget=False)

    formula = sub.add_parser("formula").add_subparsers(dest="sub", required=True)
    p = formula.add_parser("parse")
    p.add_argument("text")
    _finish(p, cmd_formula_parse, theta=False, budget=False)

    p = formula.add_parser("eval")
    p.add_argument("text")
    p.add_argument("--env", help="comma-separated name=value bindings")
    p.add_argument("--param-a", type=natural, default=0)
    p.add_argument("--param-A", default="")
    _finish(p, cmd_formula_eval, theta=False, budget=False)

    p = formula.add_parser("weaken")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="bounded core; the standard three-step prefix is assumed")
    group.add_argument("--file", help="prefixed sentence JSON")
    p.add_argument("--out")
    _finish(p, cmd_formula_weaken, theta=False, budget=False)

    return root


# how main builds each input that _finish declared for a handler, which
# takes it by this name
INPUTS = {
    "x": load_set,
    "f": lambda args: read_json(args.coloring, ColoringTable.from_json),
    "sentence": load_sentence,
    "budget": lambda args: Budget(args.budget),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        outcome = args.handler(args, **{name: INPUTS[name](args) for name in args.inputs})
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 3
    except PreconditionError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 3
    except BudgetExceeded as err:
        outcome = Outcome(2, {"result": "exhausted", "reason": str(err)}, str(err))
    except SizeOverflow as err:
        outcome = Outcome(2, {"result": "overflow", "reason": str(err)}, f"overflow: {err}")
    except Exception as err:  # a fault of the program must never read as "false"
        import traceback  # only a fault pays for loading it

        traceback.print_exc()
        reason = f"{type(err).__name__}: {err}"
        outcome = Outcome(4, {"result": "internal-error", "reason": reason}, f"internal error: {reason}")
    if args.format == "json":
        # every result carries a reason: the payload's own, else the human line
        result = {"command": args.command, "exit": outcome.code, "reason": outcome.human}
        print(json.dumps({**result, **outcome.payload}))
    else:
        print(outcome.human)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
