import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from omegalarge import cli
from omegalarge.cli import main
from omegalarge.formula import TOP, Pi03Sentence, parse
from omegalarge.largeness import LargenessSpec, check_large
from omegalarge.sets import ColoringTable, FinSet


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_set(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_coloring(tmp_path, name, table):
    return write_text(tmp_path, name, table.to_json())


def test_large_check_certificate_roundtrip(tmp_path, capsys):
    x = write_set(tmp_path, "x.txt", range(3, 39))
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "large", "check", "--set", x, "--n", "2", "--k", "1",
        "--theta", "top", "--cert-out", str(cert),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "large", "check", "--set", x, "--n", "2", "--k", "1",
        "--verify", str(cert), "--paranoid",
    )
    assert code == 0
    # the same certificate against a different shape is rejected
    code, _, _ = run(
        capsys, "large", "check", "--set", x, "--n", "1", "--k", "1", "--verify", str(cert)
    )
    assert code == 1


def test_large_check_not_large_and_json(tmp_path, capsys):
    x = write_set(tmp_path, "x.txt", [3, 4, 5])
    code, out, _ = run(
        capsys, "large", "check", "--set", x, "--n", "1", "--k", "1", "--format", "json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["result"] == "not-large" and obj["exit"] == 1


def test_large_check_interval_shorthand(capsys):
    code, _, _ = run(capsys, "large", "check", "--interval", "3:38", "--n", "2", "--k", "1")
    assert code == 0


def test_large_minimal(capsys):
    code, out, _ = run(capsys, "large", "minimal", "--x", "3", "--n", "2")
    assert code == 0 and "[3, 38]" in out and "36" in out
    code, out, _ = run(capsys, "large", "minimal", "--x", "3", "--n", "3", "--budget", "1000000")
    assert code == 2
    # --budget is a size cap here: absent means 10**6, and 0 is a cap of 0
    code, out, _ = run(capsys, "large", "minimal", "--x", "3", "--n", "2", "--budget", "0")
    assert code == 2 and "overflow" in out


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "large", "check", "--n", "1")
    assert code == 3 and "usage error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nxyz\n")
    code, _, err = run(capsys, "large", "check", "--set", str(bad), "--n", "1")
    assert code == 3 and "bad.txt:2" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 3


@pytest.mark.parametrize(
    "text", ['[{"a": 1}, 5]', "[3, 4.5, 9]", "[3, true, 9]"], ids=["object", "float", "bool"]
)
def test_json_set_entries_must_be_integers(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(
        capsys, "large", "check", "--set", str(bad), "--n", "1", "--format", "json"
    )
    assert code == 3 and out == ""
    assert "bad.json: JSON set entry" in err and "Traceback" not in err


def test_internal_error_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_certificate", lambda *args, **kwargs: False)
    code, out, err = run(
        capsys, "large", "check", "--interval", "3:38", "--n", "2", "--format", "json"
    )
    assert code == 4 and "Traceback" in err
    obj = json.loads(out)
    assert obj["result"] == "internal-error" and obj["exit"] == 4
    assert "fails re-verification" in obj["reason"]


def test_apart(tmp_path, capsys):
    x = write_set(tmp_path, "x.txt", [3, 4])
    y = write_set(tmp_path, "y.txt", [9, 10])
    code, out, _ = run(capsys, "apart", "--x", x, "--y", y, "--theta", "y = x + 1 and true")
    assert code == 0 and "apart" in out
    code, out, _ = run(capsys, "apart", "--x", x, "--y", y, "--theta", "y < x")
    assert code == 1


def test_pigeonhole(tmp_path, capsys):
    x38 = FinSet.interval(3, 38)
    f = ColoringTable.from_function(x38, 1, 3, lambda v: v % 3)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 39))
    code, out, _ = run(
        capsys, "large", "pigeonhole", "--set", x, "--coloring", coloring,
        "--b", "1", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["subset"]) >= 4


def test_grouping_find_and_check(tmp_path, capsys):
    x38 = FinSet.interval(3, 38)
    f = ColoringTable.from_function(x38, 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 39))
    witness = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "grouping", "find", "--set", x, "--coloring", coloring,
        "--l0", "omega:1", "--l1", "card:2", "--witness-out", str(witness),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "grouping", "check", "--witness", str(witness), "--coloring", coloring,
        "--l0", "omega:1", "--l1", "card:2",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "grouping", "check", "--witness", str(witness), "--coloring", coloring,
        "--l0", "omega:1", "--l1", "card:5",
    )
    assert code == 1


def test_theta_true_is_read_as_top(tmp_path, capsys):
    # --theta true parses to a sentence equal to TOP; read as TOP itself, a
    # bare count answers the transversal requirement, as with omega:0:3:top,
    # instead of one largeness check per one-point-per-block selection
    f = ColoringTable.from_function(FinSet.interval(3, 176), 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"blocks": [[str(v) for v in range(lo, lo + 58)] for lo in (3, 61, 119)]}))
    argv = ["grouping", "check", "--witness", str(witness), "--coloring", coloring, "--l0", "card:1"]
    top = run(capsys, *argv, "--l1", "omega:0:3:top")
    start = time.perf_counter()
    parsed = run(capsys, *argv, "--l1", "omega:0:3", "--theta", "true")
    assert time.perf_counter() - start < 0.1
    assert parsed == top and top[0] == 0
    assert cli.load_sentence(argparse.Namespace(theta="true", theta_file=None, param_a=None, param_A=None)) is TOP


def test_grouping_absent(tmp_path, capsys):
    x8 = FinSet.interval(3, 10)
    f = ColoringTable.from_function(x8, 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 11))
    code, out, _ = run(
        capsys, "grouping", "find", "--set", x, "--coloring", coloring,
        "--l0", "card:1", "--l1", "card:99",
    )
    assert code == 1


def test_grouping_absent_when_no_open_block_can_fill(tmp_path, capsys):
    # no two 2-large blocks fit in [3,40]: the first needs 36 of its 38
    # elements; without a cut on the open block's least size the walk
    # ran for minutes
    f = ColoringTable.from_function(FinSet.interval(3, 40), 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "grouping", "find", "--interval", "3:40", "--coloring", coloring,
        "--l0", "omega:2", "--l1", "card:2", "--format", "json",
    )
    assert time.perf_counter() - start < 5
    assert code == 1 and json.loads(out)["result"] == "absent"


def test_grouping_find_rejects_a_coloring_that_misses_the_set(tmp_path, capsys):
    f = ColoringTable.from_function(FinSet.interval(3, 10), 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 12))
    code, out, err = run(
        capsys, "grouping", "find", "--set", x, "--coloring", coloring,
        "--l0", "card:1", "--l1", "card:2", "--format", "json",
    )
    assert code == 3
    assert out == "" and "does not cover" in err


def test_gamma_large_exit_codes(tmp_path, capsys):
    x = write_set(tmp_path, "x.txt", [3, 4, 5, 6])
    base = ["gamma", "large", "--set", x, "--gamma", "rt12"]
    code, _, _ = run(capsys, *base, "--r", "0")
    assert code == 0
    code, _, _ = run(capsys, *base, "--r", "1")
    assert code == 1
    code, _, _ = run(capsys, *base, "--r", "1", "--mode", "sampled", "--trials", "3", "--seed", "7")
    assert code in (1, 2)


def test_sampled_runs_never_exit_zero(tmp_path, capsys):
    # a statement that exact mode confirms still exits 2 under sampling:
    # trials can refute, never confirm
    x = write_set(tmp_path, "x.txt", [3, 4, 5, 6])
    base = ["gamma", "large", "--set", x, "--gamma", "rt12", "--r", "0"]
    code, _, _ = run(capsys, *base)
    assert code == 0
    for seed in ("1", "2", "3"):
        code, out, _ = run(capsys, *base, "--mode", "sampled", "--trials", "20", "--seed", seed)
        assert code == 2, out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["large", "--interval", "3:30", "--gamma", "rt12", "--r", "1"], "subset space 2^28 exceeds"),
        (["large", "--interval", "3:12", "--gamma", "rt22", "--r", "1"], "coloring space 2^45 exceeds"),
        (["dense", "--interval", "3:6", "--gamma", "true", "--m", "3"], "capped at level 2"),
        # sampled density draws statement colorings first, so psi0 meets 17 points
        (["dense", "--interval", "3:19", "--arity", "1", "--psi0", "a < 2", "--m", "1", "--mode", "sampled"],
         "over 17 elements"),
    ],
)
def test_gamma_ceilings_read_inconclusive(argv, reason, capsys):
    code, out, err = run(capsys, "gamma", *argv, "--format", "json")
    obj = json.loads(out)
    assert code == 2 and obj["verdict"] == "inconclusive" and reason in obj["reason"]
    assert "Traceback" not in err


def test_exact_density_refutes_by_a_cheap_clause_before_the_psi0_ceiling(capsys):
    # exact density tries the interval partitions before the statement's
    # colorings: three parts of [3,19] with no large part refute it
    argv = ["dense", "--interval", "3:19", "--arity", "1", "--psi0", "a < 2", "--m", "1"]
    code, out, _ = run(capsys, "gamma", *argv, "--format", "json")
    assert code == 1 and json.loads(out)["verdict"] == "false"


@pytest.mark.parametrize(
    "psi0, r, mode, code, reason",
    [
        # no subset of [3,19] is omega^2-large, so psi0 is never read and
        # every coloring is a counterexample; exact mode names the first
        ("a < 2", "2", "exact", 1, "counterexample coloring ["),
        ("a < 2", "2", "sampled", 1, "counterexample coloring ["),
        # [3,19] itself is omega-large, and the first coloring is tried on
        # the largest large subset first, before any smaller solution
        ("not 4 < 0", "1", "exact", 2, "subset enumeration over 17 elements exceeds ceiling"),
    ],
)
def test_gamma_large_reads_psi0_only_on_large_subsets(psi0, r, mode, code, reason, capsys):
    argv = ["large", "--interval", "3:19", "--arity", "1", "--psi0", psi0, "--r", r, "--mode", mode]
    got, out, _ = run(capsys, "gamma", *argv, "--format", "json")
    obj = json.loads(out)
    assert got == code and obj["reason"].startswith(reason)
    if mode == "exact" and code == 1:
        assert obj["reason"] == f"counterexample coloring {[0] * 17}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--psi0", "x<1", "--r", "0"], "free variables"),
        (["--psi0", "0<1", "--colors", "3", "--r", "0"], "two colors only"),
        (["--psi0", "transitive", "--arity", "1", "--r", "0"], "arity-2 colorings only"),
        (["--arity", "1", "--colors", "0", "--psi0", "homogeneous", "--r", "5"], "at least one color"),
    ],
)
def test_gamma_statements_that_cannot_be_evaluated_are_usage_errors(argv, message, capsys):
    code, out, err = run(capsys, "gamma", "large", "--interval", "3:6", *argv, "--format", "json")
    assert code == 3 and out == ""
    assert "usage error: bad statement: " in err and message in err and "Traceback" not in err


def test_gamma_dense(tmp_path, capsys):
    x = write_set(tmp_path, "x.txt", [3, 4, 5, 6])
    code, _, _ = run(capsys, "gamma", "dense", "--set", x, "--gamma", "true", "--m", "0")
    assert code == 0
    y = write_set(tmp_path, "y.txt", [3, 4, 5])
    code, _, _ = run(capsys, "gamma", "dense", "--set", y, "--gamma", "true", "--m", "0")
    assert code == 1


def test_em_extract_cli(tmp_path, capsys):
    x38 = FinSet.interval(3, 38)
    f = ColoringTable.from_function(x38, 2, 2, lambda x, y: 1)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 39))
    code, out, _ = run(
        capsys, "em", "extract", "--set", x, "--coloring", coloring,
        "--n", "1", "--scaled", "--budget", "400000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"] == "found"


def test_ads_q_cli(tmp_path, capsys):
    z = FinSet.interval(3, 6)
    f = ColoringTable.from_function(z, 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 7))
    code, out, _ = run(
        capsys, "ads", "q", "--set", x, "--coloring", coloring, "--n", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] == "total"


def test_ads_extract_cli(tmp_path, capsys):
    z = FinSet.interval(3, 38)
    f = ColoringTable.from_function(z, 2, 2, lambda x, y: 1)
    coloring = write_coloring(tmp_path, "f.json", f)
    x = write_set(tmp_path, "x.txt", range(3, 39))
    code, _, _ = run(capsys, "ads", "extract", "--set", x, "--coloring", coloring, "--n", "1")
    assert code == 0


def test_lowerbound_tree_summary(capsys):
    code, out, _ = run(capsys, "lowerbound", "tree", "--base", "3", "--rank", "2")
    assert code == 0 and "36" in out and "38" in out
    # a size past the cap is an overflow (exit 2), not a value
    code, out, _ = run(capsys, "lowerbound", "tree", "--base", "3", "--rank", "3")
    assert code == 2 and "overflow" in out
    code, out, _ = run(capsys, "lowerbound", "tree", "--base", "3", "--rank", "2", "--budget", "0", "--format", "json")
    obj = json.loads(out)
    assert code == 2 and obj["result"] == "overflow" and "cardinality" not in obj


def test_lowerbound_tree_export_consumable(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    code, _, _ = run(
        capsys, "lowerbound", "tree", "--base", "3", "--rank", "2",
        "--materialize", "--export-theta", str(theta),
    )
    assert code == 0
    x = write_set(tmp_path, "x.txt", range(3, 39))
    code, _, _ = run(
        capsys, "large", "check", "--set", x, "--n", "2", "--k", "1",
        "--theta-file", str(theta),
    )
    assert code == 0


def test_lowerbound_fx(capsys):
    code, out, _ = run(capsys, "lowerbound", "fx", "--rank", "1", "--value", "3")
    assert code == 0 and "= 1" in out
    code, out, _ = run(capsys, "lowerbound", "fx", "--rank", "1")
    assert code == 0 and "3:1" in out and "4:0" in out


def test_lowerbound_verify_exit_codes(capsys):
    code, _, _ = run(capsys, "lowerbound", "verify", "--n", "1")
    assert code == 0
    code, out, _ = run(capsys, "lowerbound", "verify", "--n", "2", "--mode", "pruned")
    assert code == 2 and "consistent" in out
    # a consistent answer says how many sub-instances went unexplored
    code, out, _ = run(capsys, "lowerbound", "verify", "--n", "2", "--mode", "pruned", "--format", "json")
    payload = json.loads(out)
    assert code == 2 and (payload["status"], payload["sub_instances"], payload["skipped"]) == ("consistent", 5, 21)


def test_bounds_table_tsv(capsys):
    code, out, _ = run(capsys, "bounds-table", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[0] == "n"
    ads = [line.split("\t")[7] for line in lines[1:]]
    assert ads == ["4", "8", "12", "16"]


def test_formula_commands(capsys):
    code, out, _ = run(capsys, "formula", "parse", "forall z < y . x < z")
    assert code == 0
    code, _, _ = run(capsys, "formula", "parse", "forall z . x < z")
    assert code == 3
    code, out, _ = run(capsys, "formula", "eval", "exists y < x + 1 . y = x", "--env", "x=5")
    assert code == 0
    code, out, _ = run(capsys, "formula", "eval", "x < 2", "--env", "x=5")
    assert code == 1
    code, out, err = run(capsys, "formula", "eval", "9 in A", "--param-A", "01")
    assert code == 1 and "beyond the coded length" in err


@pytest.mark.parametrize(
    "text",
    [
        " or ".join(f"x + {i} = y" for i in range(600)),
        " and ".join(f"x < {i}" for i in range(600)),
        "not " * 600 + "x < y",
        " -> ".join(f"x < {i}" for i in range(3000)),
    ],
    ids=["or-600", "and-600", "not-600", "imp-3000"],
)
def test_formula_parse_prints_long_chains(capsys, text):
    # the printed text is compared, not the formula: equality of records
    # nested this deep recurses past the interpreter's limit
    code, out, _ = run(capsys, "formula", "parse", text, "--format", "json")
    assert code == 0 and json.loads(out)["canonical"] == text


def test_membership_beyond_length_is_false_and_reported(capsys):
    code, out, err = run(
        capsys, "formula", "eval", "exists i < 5 . i + 2 in A", "--param-A", "01", "--format", "json"
    )
    obj = json.loads(out)
    assert code == 1 and obj["value"] is False and obj["beyond_length_queries"] == [2, 3, 4, 5, 6]
    assert err.count("beyond the coded length") == 5
    # reads within the coded length are not reported
    code, out, _ = run(capsys, "formula", "eval", "exists i < 6 . i in A", "--param-A", "0000", "--format", "json")
    assert code == 1 and json.loads(out)["beyond_length_queries"] == [4, 5]


@pytest.mark.parametrize(
    "argv",
    [
        ["large", "check", "--interval", "3:10", "--n", "1", "--cert-out"],
        ["large", "minimal", "--x", "3", "--n", "1", "--out"],
        ["lowerbound", "tree", "--base", "3", "--rank", "1", "--export-theta"],
        ["formula", "weaken", "--text", "x < z and y < z", "--out"],
        ["grouping", "find", "--interval", "3:10", "--coloring", "F", "--l0", "card:1", "--l1", "card:2",
         "--witness-out"],
        ["ads", "q", "--interval", "3:6", "--coloring", "F", "--n", "1", "--out"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_unwritable_output_paths_exit_3(tmp_path, capsys, argv):
    f = ColoringTable.from_function(FinSet.interval(3, 10), 2, 2, lambda x, y: 0)
    argv = [write_coloring(tmp_path, "f.json", f) if arg == "F" else arg for arg in argv]
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, str(target), "--format", "json")
    assert code == 3 and out == ""
    assert f"usage error: {target}: " in err and "Traceback" not in err


def test_formula_weaken_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "weak.json"
    code, out, _ = run(
        capsys, "formula", "weaken", "--text", "x < z and y < z", "--out", str(out_file)
    )
    assert code == 0
    assert "exists x' < x" in out.replace("exists x'", "exists x'")
    # applying the transform twice is a shape error
    code, _, err = run(capsys, "formula", "weaken", "--file", str(out_file))
    assert code == 3


def test_coloring_colors_must_be_integers(tmp_path, capsys):
    # a half color used to pass the range check and come back as color 0.5
    path = tmp_path / "f.json"
    path.write_text('{"domain": [3, 4, 5, 6], "arity": 1, "colors": 2, "table": [0.5, 0.5, 0.5, 0.5]}')
    code, out, err = run(
        capsys, "large", "pigeonhole", "--interval", "3:6", "--coloring", str(path),
        "--b", "0", "--format", "json",
    )
    assert code == 3 and out == ""
    assert "f.json: table entry 0 is not an integer" in err


@pytest.mark.parametrize("flag", ["--set", "--theta-file", "--coloring"])
def test_undecodable_files_are_named(tmp_path, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    x = write_set(tmp_path, "x.txt", range(3, 7))
    argv = {
        "--set": ["large", "check", "--set", str(bad), "--n", "1"],
        "--theta-file": ["large", "check", "--set", x, "--n", "1", "--theta-file", str(bad)],
        "--coloring": ["large", "pigeonhole", "--set", x, "--coloring", str(bad), "--b", "0"],
    }[flag]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert f"usage error: {bad}: 'utf-8' codec can't decode" in err and "Traceback" not in err


def test_success_json_carries_a_reason(tmp_path, capsys):
    f1 = write_coloring(
        tmp_path, "f1.json", ColoringTable.from_function(FinSet.interval(3, 38), 1, 3, lambda v: v % 3)
    )
    f2 = write_coloring(
        tmp_path, "f2.json", ColoringTable.from_function(FinSet.interval(3, 38), 2, 2, lambda x, y: 0)
    )
    calls = [
        ["large", "check", "--interval", "3:38", "--n", "2"],
        ["large", "pigeonhole", "--interval", "3:38", "--coloring", f1, "--b", "1"],
        ["grouping", "find", "--interval", "3:38", "--coloring", f2, "--l0", "card:2", "--l1", "card:2"],
        ["formula", "parse", "forall z < y . x < z"],
    ]
    for argv in calls:
        code, out, _ = run(capsys, *argv, "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["exit"] == 0, argv
        assert isinstance(obj["reason"], str) and obj["reason"], argv


# Each value is out of range for its argument; "{coloring}" stands for a pair
# coloring of [3,14].  Left to the library, these fail deep inside it (exit 4)
# or read as an answer: a negative budget as exhausted, card:-1 as a grouping.
@pytest.mark.parametrize(
    "argv",
    [
        ["large", "check", "--interval", "3:10", "--n", "-1"],
        ["large", "check", "--interval", "3:10", "--n", "1", "--k", "0"],
        ["large", "check", "--interval", "3:10", "--n", "1", "--k", "-3"],
        ["large", "check", "--interval", "3:10", "--n", "1", "--budget", "-1"],
        ["large", "minimal", "--x", "3", "--n", "-1"],
        ["large", "decompose", "--interval", "3:40", "--n", "-1", "--m", "1"],
        ["em", "extract", "--interval", "3:14", "--coloring", "{coloring}", "--n", "-1"],
        ["grouping", "find", "--interval", "3:14", "--coloring", "{coloring}",
         "--l0", "card:-1", "--l1", "card:2"],
        ["gamma", "large", "--interval", "3:10", "--gamma", "rt12", "--r", "1", "--s", "0"],
        ["lowerbound", "tree", "--base", "3", "--rank", "-1"],
        ["lowerbound", "verify", "--n", "0"],
        ["bounds-table", "--n-max", "-1"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != "{coloring}"),
)
def test_out_of_range_numbers_exit_3(tmp_path, capsys, argv):
    f = ColoringTable.from_function(FinSet.interval(3, 14), 2, 2, lambda x, y: 0)
    coloring = write_coloring(tmp_path, "f.json", f)
    argv = [coloring if a == "{coloring}" else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("usage error") and "Traceback" not in err


# The exit-code contract where an exponent lies far past the interpreter's
# recursion limit, or a number is too long to print: each row exits with its
# own answer, never 4.  "{C1}" and "{C2}" stand for a coloring of the points
# and a constant pair coloring of [3,40]; "{C3}" and "{W}" for a constant pair
# coloring of [3,90] and its four blocks of 22 points, whose 22^4 transversals
# pass the transversal ceiling.  "{PKIND}", "{PVAR}" and "{PTWICE}" are
# prefixed sentences with a bad step kind, a number for a variable, and one
# variable bound three times, and "{P}" a well-formed one.  "{T}" is a θ
# file, "{CERT}" a certificate that [3,10] is large at exponent 1, and
# "{OUT}" a path to write to.  "{PLUS}", "{TIMES}" and "{AND}" are formula
# texts: flat 3,000-term `+`, `*` and `and` chains, which print and weaken.
# "{C176}" is a constant pair coloring of [3,176] and "{W3}" its three
# blocks of 58 points, [3,60], [61,118] and [119,176].  "{HUGE}" is the
# interval 3:10^400, whose bound is past the interpreter's index range.
# argv, exit code, and a fragment of the reason: of stderr on exit 3, else
# of the JSON "reason"
EXIT_CONTRACT = [
    (["large", "check", "--interval", "3:10", "--n", "5000"], 1, "not large"),
    (["large", "check", "--interval", "3:40", "--n", "3000", "--theta", "x<y"], 1, "not large"),
    (["grouping", "find", "--interval", "3:40", "--l0", "omega:3000", "--l1", "card:2", "--coloring", "{C2}"], 1,
     "no grouping exists"),
    (["gamma", "large", "--interval", "3:6", "--r", "3000", "--gamma", "rt12"], 1, "counterexample coloring"),
    (["large", "minimal", "--x", "3", "--n", "5000"], 2, "exceeds budget"),
    (["lowerbound", "tree", "--base", "3", "--rank", "4000"], 2, "exceeds budget"),
    (["lowerbound", "verify", "--n", "3000", "--mode", "exhaustive"], 2, "exceeds budget"),
    (["lowerbound", "verify", "--n", "3000", "--mode", "pruned"], 2, "consistent with the claim"),
    (["bounds-table", "--n-max", "200"], 2, "too long to print"),
    (["large", "decompose", "--interval", "3:40", "--n", "3000", "--m", "1"], 3, "not large"),
    (["large", "pigeonhole", "--interval", "3:40", "--b", "3000", "--coloring", "{C1}"], 3, "not large"),
    (["lowerbound", "fx", "--base", "3", "--rank", "3000", "--value", "5"], 0, "f(5) = 0"),
    (["grouping", "check", "--coloring", "{C3}", "--witness", "{W}", "--l0", "card:1", "--l1", "omega:1"], 2,
     "exceeds ceiling"),
    # an inverted interval is a usage error, not the empty set
    (["large", "check", "--interval", "5:3", "--n", "1"], 3, "bad --interval '5:3': LO > HI"),
    # a well-formed interval is read as written; what the command cannot take is its own error
    (["large", "check", "--interval", "1:5", "--n", "1"], 3, "precondition violated: min 1 below admissible floor 3"),
    (["large", "check", "--interval=-2:5", "--n", "1"], 3, "usage error: bad --interval '-2:5': negative element"),
    # a set below the sentence's floor max(3, a) is a precondition error on every command
    (["large", "check", "--set", "{ONE}", "--n", "0"], 3, "precondition violated: min 1 below admissible floor 3"),
    (["apart", "--x", "{ONE}", "--y", "{Y}"], 3, "precondition violated: min 1 below admissible floor 3"),
    (["ads", "extract", "--interval", "4:8", "--param-a", "7", "--theta", "x < y", "--n", "5", "--coloring", "{C2}"],
     3, "precondition violated: min 4 below admissible floor 7"),
    (["grouping", "check", "--coloring", "{C2}", "--witness", "{W45}", "--l0", "card:1", "--l1", "card:1",
      "--param-a", "7", "--theta", "x < y"], 3, "precondition violated: min 4 below admissible floor 7"),
    (["gamma", "large", "--interval", "4:30", "--param-a", "7", "--theta", "x < y", "--r", "1", "--gamma", "rt12"],
     3, "precondition violated: min 4 below admissible floor 7"),
    (["gamma", "dense", "--interval", "4:30", "--param-a", "7", "--theta", "x < y", "--m", "3", "--gamma", "rt12"],
     3, "precondition violated: min 4 below admissible floor 7"),
    # and so is a coloring whose domain misses the set
    (["ads", "extract", "--interval", "3:50", "--n", "1", "--coloring", "{C2}"], 3,
     "precondition violated: the coloring's domain does not cover the set"),
    (["ads", "q", "--interval", "3:50", "--n", "1", "--coloring", "{C2}"], 3,
     "precondition violated: the coloring's domain does not cover the set"),
    (["em", "extract", "--interval", "3:50", "--n", "1", "--coloring", "{C2}"], 3,
     "precondition violated: the coloring's domain does not cover the set"),
    # a prefix the weakening cannot read, or would read as another sentence
    (["formula", "weaken", "--file", "{PKIND}"], 3, "a prefix step's kind must be forall or exists, not \"some\""),
    (["formula", "weaken", "--file", "{PVAR}"], 3, "a prefix step's variable must be a variable name, not 5"),
    (["formula", "weaken", "--file", "{PTWICE}"], 3, "the prefix binds a variable twice: exists x forall x exists x"),
    (["formula", "parse", "{PLUS}"], 0, "x < y + 1 + 2 + 3"),
    (["formula", "parse", "{TIMES}"], 0, "x < y * 1 * 2 * 3"),
    (["formula", "weaken", "--text", "{AND}"], 0, "exists z . x' < y' + 0 and x' < y' + 1 and x' < y' + 2"),
    # the faithful walk cannot start on [3,20], which is large at exponent 1
    (["em", "extract", "--interval", "3:20", "--n", "1", "--coloring", "{C2}"], 2,
     "grouping at level 1 cannot start"),
    # a preset fixes the statement, so the custom statement's options have nothing to set
    (["gamma", "large", "--interval", "3:6", "--r", "1", "--gamma", "rt12", "--arity", "5"], 3,
     "--arity, --colors and --psi0 apply to --gamma custom, not to the preset 'rt12'"),
    # an option that would do nothing next to another, or would be read as
    # something else, is refused before any work; so is a missing input
    (["large", "check", "--interval", "3:10", "--n", "1", "--set", "missing.txt"], 3,
     "usage error: argument --set: not allowed with argument --interval"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--theta", "top", "--param-a", "5"], 3,
     "usage error: --param-a and --param-A apply to a --theta formula, not to top"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--param-A", "1"], 3,
     "usage error: --param-a and --param-A apply to a --theta formula, not to top"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--theta-file", "{T}", "--theta", "y < x"], 3,
     "usage error: argument --theta: not allowed with argument --theta-file"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--theta-file", "{T}", "--param-a", "5"], 3,
     "usage error: --param-a and --param-A apply to a --theta formula, not to --theta-file"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--verify", "{CERT}", "--cert-out", "{OUT}"], 3,
     "usage error: --cert-out and --budget apply to a search, not to --verify"),
    (["large", "check", "--interval", "3:10", "--n", "1", "--verify", "{CERT}", "--budget", "0"], 3,
     "usage error: --cert-out and --budget apply to a search, not to --verify"),
    (["gamma", "large", "--interval", "3:6", "--r", "1", "--gamma", "rt21"], 3,
     "usage error: argument --gamma: invalid choice: 'rt21'"),
    (["gamma", "large", "--interval", "3:6", "--r", "1", "--gamma", "rt12", "--mode", "exact", "--trials", "5"], 3,
     "usage error: --seed and --trials apply to --mode sampled, not to exact"),
    (["gamma", "dense", "--interval", "3:6", "--m", "1", "--gamma", "rt12", "--seed", "5"], 3,
     "usage error: --seed and --trials apply to --mode sampled, not to exact"),
    (["lowerbound", "fx", "--rank", "2", "--value", "5", "--budget", "0"], 3,
     "usage error: argument --budget: not allowed with argument --value"),
    (["formula", "weaken", "--file", "{P}", "--text", "y < z"], 3,
     "usage error: argument --text: not allowed with argument --file"),
    (["formula", "weaken"], 3, "usage error: one of the arguments --text --file is required"),
    (["grouping", "find", "--coloring", "{C2}", "--l0", "card:1", "--l1", "card:1"], 3,
     "usage error: one of the arguments --set --interval is required"),
    # the constant a is a natural number, from the command line or a file
    (["large", "check", "--interval", "3:10", "--n", "1", "--theta", "x < y + a", "--param-a", "-5"], 3,
     "usage error: argument --param-a: invalid natural value: '-5'"),
    (["formula", "eval", "a < 0", "--param-a", "-5"], 3, "usage error: argument --param-a: invalid natural value: '-5'"),
    # and so is each --env value, which binds its name once
    (["formula", "eval", "x + 1 = 0", "--env", "x=-1"], 3, "usage error: bad --env entry 'x=-1': want name=natural"),
    (["formula", "eval", "x = 2", "--env", "x=1,x=2"], 3, "usage error: --env binds 'x' twice"),
    # a certificate block is a leaf or a node, never read as the other
    (["large", "check", "--interval", "3:10", "--n", "1", "--verify", "{CKIND}"], 3,
     "a block's cert kind must be leaf or node, not \"twig\""),
    (["large", "check", "--interval", "3:10", "--n", "1", "--theta-file", "{TNEG}"], 3,
     "a must be a natural number, not -5"),
    # sampled density past its level cap answers from the cap, not past the recursion limit
    (["gamma", "dense", "--interval", "3:6", "--m", "3000", "--mode", "sampled", "--trials", "1"], 1,
     "sampled statement coloring admits no dense solution"),
    # the table stops at its first row too long to print; a rank-1 tree past
    # the table bound has no sub-instance to visit
    (["bounds-table", "--n-max", "1000000000"], 2, "too long to print"),
    (["lowerbound", "verify", "--n", "1", "--base", "100000000", "--mode", "pruned"], 2, "consistent"),
    # apart blocks meet an exponent-0 requirement under their own sentence by
    # their count, not by 58^3 selections
    (["grouping", "check", "--coloring", "{C176}", "--witness", "{W3}", "--l0", "card:1", "--l1", "omega:0:3",
      "--theta", "x < y or z < y"], 0, "valid grouping"),
    # a budget that runs out decides no pair of the recoloring
    (["ads", "q", "--interval", "3:12", "--n", "2", "--coloring", "{C2}", "--budget", "10"], 2,
     "budget exhausted during homogeneous search"),
    (["large", "check", "--interval", "{HUGE}", "--n", "1"], 3,
     "usage error: bad --interval '3:1000000000000000"),
    # answers that come before any work that grows with the exponent
    (["em", "extract", "--interval", "3:8", "--n", "30000", "--coloring", "{C2}"], 1,
     "absent at stage: plain largeness at level 30000"),
    (["em", "extract", "--scaled", "--interval", "3:13", "--n", "2", "--coloring", "{C2}"], 1,
     "absent at stage: plain largeness at level 2"),
    (["bounds-table", "--n-max", "0", "--k", "1000000000"], 2, "16^1000000000 has more than"),
]


def contract_argv(tmp_path, argv):
    """The row's argv with each placeholder replaced by a file it writes, or
    by a formula text."""
    x = FinSet.interval(3, 40)

    def witness(name, blocks):
        path = tmp_path / name
        path.write_text(json.dumps({"blocks": [[str(v) for v in b] for b in blocks]}))
        return str(path)

    def prefixed(name, prefix):
        path = tmp_path / name
        path.write_text(json.dumps({"prefix": prefix, "matrix": "x < y"}))
        return str(path)

    files = {
        "{C1}": lambda: write_coloring(tmp_path, "c1.json", ColoringTable.from_function(x, 1, 2, lambda v: v % 2)),
        "{C2}": lambda: write_coloring(tmp_path, "c2.json", ColoringTable.from_function(x, 2, 2, lambda a, b: 0)),
        "{C3}": lambda: write_coloring(
            tmp_path, "c3.json", ColoringTable.from_function(FinSet.interval(3, 90), 2, 1, lambda a, b: 0)
        ),
        "{W}": lambda: witness("w.json", [range(3 + 22 * i, 25 + 22 * i) for i in range(4)]),
        "{C176}": lambda: write_coloring(
            tmp_path, "c176.json", ColoringTable.from_function(FinSet.interval(3, 176), 2, 1, lambda a, b: 0)
        ),
        "{W3}": lambda: witness("w3.json", [range(3 + 58 * i, 61 + 58 * i) for i in range(3)]),
        "{W45}": lambda: witness("w45.json", [[4, 5]]),
        "{ONE}": lambda: write_set(tmp_path, "one.txt", [1]),
        "{Y}": lambda: write_set(tmp_path, "y.txt", [5, 6]),
        "{PKIND}": lambda: prefixed("pkind.json", [["some", "x", None], ["forall", "y", None], ["exists", "z", None]]),
        "{PVAR}": lambda: prefixed("pvar.json", [["exists", 5, None], ["forall", "y", None], ["exists", "z", None]]),
        "{PTWICE}": lambda: prefixed("ptwice.json", [["exists", "x", None], ["forall", "x", None], ["exists", "x", None]]),
        "{P}": lambda: prefixed("p.json", [["exists", "x", None], ["forall", "y", None], ["exists", "z", None]]),
        "{T}": lambda: write_text(tmp_path, "t.json", Pi03Sentence(parse("x < y or z < y")).to_json()),
        "{TNEG}": lambda: write_text(tmp_path, "tneg.json", json.dumps({"theta": "x < y + a", "a": "-5", "A": ""})),
        "{CERT}": lambda: write_text(
            tmp_path, "cert.json", check_large(FinSet.interval(3, 10), LargenessSpec(1, 1, TOP)).to_json()
        ),
        "{CKIND}": lambda: write_text(tmp_path, "ckind.json", json.dumps(
            {"exponent": 1, "multiplier": 1, "blocks": [{"lo": 0, "hi": 1, "cert": {"kind": "twig", "witness": "3"}}]}
        )),
        "{OUT}": lambda: str(tmp_path / "out.json"),
        "{PLUS}": lambda: "x < y + " + " + ".join(map(str, range(1, 3000))),
        "{TIMES}": lambda: "x < y * " + " * ".join(map(str, range(1, 3000))),
        "{AND}": lambda: " and ".join(f"x < y + {i}" for i in range(3000)),
        "{HUGE}": lambda: "3:1" + "0" * 400,
    }
    return [files[a]() if a in files else a for a in argv]


@pytest.mark.parametrize(
    "argv,want,fragment", [pytest.param(*row, id=" ".join(row[0])) for row in EXIT_CONTRACT]
)
def test_exit_code_contract(tmp_path, capsys, argv, want, fragment):
    code, out, err = run(capsys, *contract_argv(tmp_path, argv), "--format", "json")
    assert code in (0, 1, 2, 3) and code == want
    assert "Traceback" not in err
    if code == 3:
        assert out == "" and fragment in err
    else:
        (line,) = out.splitlines()
        obj = json.loads(line)
        assert obj["exit"] == code and fragment in obj["reason"]


def test_each_status_word_exits_with_its_code(tmp_path, capsys):
    # a library status the JSON carries, as `result`, `verdict` or `status`,
    # decides the exit code through the one table
    seen = set()
    for argv, want, _ in EXIT_CONTRACT:
        code, out, _ = run(capsys, *contract_argv(tmp_path, argv), "--format", "json")
        if code == 3:
            continue
        obj = json.loads(out)
        for word in (obj.get(key) for key in ("result", "verdict", "status")):
            if isinstance(word, str) and word in cli.EXIT:
                assert code == cli.EXIT[word] == want, (argv, word)
                seen.add(word)
    assert seen >= {"absent", "false", "inconclusive", "consistent", "exhausted"}


def test_exit_code_contract_under_optimize(tmp_path):
    # `python -O` strips asserts: every row must answer the same without them
    rows = [contract_argv(tmp_path, argv) for argv, _, _ in EXIT_CONTRACT]
    script = (
        "import contextlib, io, json, sys\n"
        "from omegalarge.cli import main\n"
        "assert False, 'asserts are on'\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(rows)], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [want for _, want, _ in EXIT_CONTRACT]


@pytest.mark.parametrize(
    "argv",
    [
        ["large", "minimal", "--x", "3", "--n", "5000"],
        ["lowerbound", "tree", "--base", "3", "--rank", "4000"],
        ["lowerbound", "verify", "--n", "3000", "--mode", "exhaustive"],
        ["lowerbound", "fx", "--base", "3", "--rank", "3"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_every_size_overflow_reads_the_same(capsys, argv):
    # one outcome: the human line is the JSON reason after an `overflow: ` prefix
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == "" and out.startswith("overflow: ")
    code, line, _ = run(capsys, *argv, "--format", "json")
    obj = json.loads(line)
    assert code == 2 and obj["result"] == "overflow" and out == f"overflow: {obj['reason']}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "eval", "0 in A", "--param-A", "012"],
        ["large", "check", "--interval", "3:8", "--n", "1", "--theta", "x < y", "--param-A", "012"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_malformed_param_a_is_named(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("usage error: bad --param-A: ")


# "{C1}" stands for a 3-coloring of the points of [3,38], "{BLOCKS}" for the
# singletons of [3,38], one set file each
@pytest.mark.parametrize(
    "argv",
    [
        ["large", "check", "--interval", "3:10", "--n", "1"],
        ["large", "pigeonhole", "--interval", "3:38", "--coloring", "{C1}", "--b", "1"],
        ["large", "decompose", "--interval", "3:38", "--n", "0", "--m", "1"],
        ["large", "fuse", "--blocks", "{BLOCKS}", "--a", "0", "--b", "1"],
        ["gamma", "dense", "--interval", "3:7", "--gamma", "rt12", "--m", "1"],
        ["lowerbound", "verify", "--mode", "pruned", "--n", "2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_large_check_leaves_no_cyclic_garbage(tmp_path, capsys, argv):
    x38 = FinSet.interval(3, 38)
    if "{C1}" in argv:
        f = ColoringTable.from_function(x38, 1, 3, lambda v: v % 3)
        argv[argv.index("{C1}")] = write_coloring(tmp_path, "f.json", f)
    if "{BLOCKS}" in argv:
        i = argv.index("{BLOCKS}")
        argv[i: i + 1] = [write_set(tmp_path, f"b{v}.txt", [v]) for v in x38]
    # the first call builds the parser and what else a process keeps
    first = main(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert code == first and garbage == []


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_share_no_state(tmp_path, monkeypatch, capsys):
    seen = []
    verify = cli.verify_certificate

    def spy(*args, **kwargs):
        seen.append(kwargs["paranoid"])
        return verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_certificate", spy)
    argv = ["large", "check", "--interval", "3:38", "--n", "2", "--format", "json"]
    assert run(capsys, *argv, "--paranoid")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert seen == [True, False]
    theta = tmp_path / "theta.json"
    theta.write_text(Pi03Sentence(parse("y < x")).to_json())
    code, out, _ = run(capsys, *argv, "--theta-file", str(theta))
    assert code == 1 and json.loads(out)["result"] == "not-large"
    code, out, _ = run(capsys, *argv, "--theta", "x < y or z < y")
    assert code == 0 and json.loads(out)["result"] == "large"


_LEAF_BLOCK = {"lo": 0, "hi": 1, "cert": {"kind": "leaf", "witness": "3"}}


@pytest.mark.parametrize(
    "flag, obj",
    [
        ("--theta-file", [1]),
        ("--theta-file", {"theta": 5}),
        ("--theta-file", {"theta": "x < y", "A": 5}),
        ("--theta-file", {"theta": "x < y", "a": [1]}),
        ("--verify", [1]),
        ("--verify", {"exponent": 0, "multiplier": 1, "blocks": {"lo": 0}}),
        ("--verify", {"exponent": 0, "multiplier": 1, "blocks": [1]}),
        ("--verify", {"exponent": 0, "multiplier": 1, "blocks": [{**_LEAF_BLOCK, "cert": [1]}]}),
        ("--verify", {"exponent": 0, "multiplier": [1], "blocks": [_LEAF_BLOCK]}),
        ("--verify", {"exponent": 1, "multiplier": 1,
                      "blocks": [{**_LEAF_BLOCK, "cert": {"kind": "node", "head": "3", "children": 7}}]}),
        ("--witness", [1]),
        ("--witness", {"blocks": [3, 4]}),
        ("--file", [1]),
        ("--file", {"prefix": [["exists", "x", None], 5], "matrix": "x < y"}),
        ("--file", {"prefix": [["exists", "x"]], "matrix": "x < y"}),
        ("--file", {"prefix": [], "matrix": 5}),
    ],
)
def test_json_of_the_wrong_type_exits_3(tmp_path, capsys, flag, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    coloring = write_coloring(
        tmp_path, "f.json", ColoringTable.from_function(FinSet.interval(3, 10), 2, 2, lambda x, y: 0)
    )
    argv = {
        "--theta-file": ["large", "check", "--interval", "3:10", "--n", "1"],
        "--verify": ["large", "check", "--interval", "3:10", "--n", "0"],
        "--witness": ["grouping", "check", "--coloring", coloring, "--l0", "card:1", "--l1", "card:1"],
        "--file": ["formula", "weaken"],
    }[flag]
    code, out, err = run(capsys, *argv, flag, str(bad), "--format", "json")
    assert code == 3 and out == ""
    assert f"usage error: {bad}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "theta", ["(" * 400 + "x < y" + ")" * 400, "x < " + "2 * (" * 300 + "y" + ")" * 300],
    ids=["parens-400", "times-300"],
)
@pytest.mark.parametrize("source", ["--theta", "--theta-file"])
def test_theta_deeper_than_the_recursion_limit_exits_3(tmp_path, capsys, theta, source):
    argv = ["large", "check", "--interval", "3:10", "--n", "1", "--format", "json"]
    if source == "--theta":
        argv += ["--theta", theta]
        where = "bad --theta"
    else:
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"theta": theta}))
        argv += ["--theta-file", str(path)]
        where = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"usage error: {where}: nested too deeply to read" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "theta",
    [" or ".join(f"x < y + {i}" for i in range(3000)), " and ".join(f"x < y + {i}" for i in range(3000)),
     "x < y" + " + 1" * 1500, " -> ".join(f"x < y + {i}" for i in range(3000))],
    ids=["or-3000", "and-3000", "plus-1500", "imp-3000"],
)
@pytest.mark.parametrize("source", ["--theta", "--theta-file"])
def test_flat_theta_chains_are_read(tmp_path, capsys, theta, source):
    # a chain is flat, not nested: it reads and compiles at any length
    # under the default recursion limit, and the sentence answers
    argv = ["large", "check", "--interval", "3:20", "--n", "1", "--format", "json"]
    if source == "--theta":
        argv += ["--theta", theta]
    else:
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"theta": theta}))
        argv += ["--theta-file", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["result"] == "large"


@pytest.mark.parametrize("flag", ["--set", "--coloring", "--verify"])
def test_json_nested_too_deeply_exits_3(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    x = write_set(tmp_path, "x.txt", range(3, 7))
    argv = {
        "--set": ["large", "check", "--set", str(deep), "--n", "1"],
        "--coloring": ["large", "pigeonhole", "--set", x, "--coloring", str(deep), "--b", "0"],
        "--verify": ["large", "check", "--set", x, "--n", "1", "--verify", str(deep)],
    }[flag]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert f"usage error: {deep}: nested too deeply to read" in err and "Traceback" not in err


# every option of every subcommand is one its handler reads
_FMT = {"--format"}
_SET = {"--set", "--interval"}
_THETA = {"--theta", "--theta-file", "--param-a", "--param-A"}
_GAMMA = _FMT | _SET | _THETA | {"--gamma", "--arity", "--colors", "--psi0", "--mode", "--trials", "--seed"}
_EXTRACTOR = _FMT | _SET | _THETA | {"--budget", "--coloring", "--n"}
OPTIONS = {
    "large check": _FMT | _SET | _THETA | {"--budget", "--n", "--k", "--paranoid", "--cert-out", "--verify"},
    "large minimal": _FMT | {"--budget", "--x", "--n", "--out"},
    "large pigeonhole": _FMT | _SET | _THETA | {"--budget", "--coloring", "--b", "--sparsity", "--strict"},
    "large decompose": _FMT | _SET | _THETA | {"--budget", "--n", "--m"},
    "large fuse": _FMT | _THETA | {"--budget", "--blocks", "--a", "--b"},
    "apart": _FMT | _THETA | {"--x", "--y"},
    "grouping find": _FMT | _SET | _THETA | {"--budget", "--coloring", "--l0", "--l1", "--witness-out"},
    "grouping check": _FMT | _THETA | {"--coloring", "--witness", "--l0", "--l1"},
    "gamma large": _GAMMA | {"--r", "--s"},
    "gamma dense": _GAMMA | {"--m"},
    "em extract": _EXTRACTOR | {"--scaled"},
    "ads q": _EXTRACTOR | {"--successor", "--out"},
    "ads extract": _EXTRACTOR,
    "lowerbound tree": _FMT | {"--budget", "--base", "--rank", "--materialize", "--export-theta"},
    "lowerbound fx": _FMT | {"--budget", "--base", "--rank", "--value"},
    "lowerbound verify": _FMT | {"--budget", "--n", "--base", "--mode"},
    "bounds-table": _FMT | {"--n-max", "--k"},
    "formula parse": _FMT,
    "formula eval": _FMT | {"--env", "--param-a", "--param-A"},
    "formula weaken": _FMT | {"--text", "--file", "--out"},
}


# options that would shadow one another are declared mutually exclusive;
# "required" marks a group of which one option must be given
_SET_GROUP = ("required", "--set", "--interval")
_THETA_GROUP = ("--theta", "--theta-file")
GROUPS = {name: set() for name in OPTIONS} | {
    "large check": {_SET_GROUP, _THETA_GROUP},
    "large pigeonhole": {_SET_GROUP, _THETA_GROUP},
    "large decompose": {_SET_GROUP, _THETA_GROUP},
    "large fuse": {_THETA_GROUP},
    "apart": {_THETA_GROUP},
    "grouping find": {_SET_GROUP, _THETA_GROUP},
    "grouping check": {_THETA_GROUP},
    "gamma large": {_SET_GROUP, _THETA_GROUP},
    "gamma dense": {_SET_GROUP, _THETA_GROUP},
    "em extract": {_SET_GROUP, _THETA_GROUP},
    "ads q": {_SET_GROUP, _THETA_GROUP},
    "ads extract": {_SET_GROUP, _THETA_GROUP},
    "lowerbound fx": {("--value", "--budget")},
    "formula weaken": {("required", "--text", "--file")},
}


def _leaf_parsers(parser, path=()):
    """(subcommand path, its parser) for every leaf parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_parsers(child, path + (name,))
            return
    yield " ".join(path), parser


def _subcommands(parser):
    """(subcommand path, (its option strings but -h, its mutually exclusive
    groups)) for every leaf parser."""
    for name, leaf in _leaf_parsers(parser):
        options = {a.option_strings[-1] for a in leaf._actions if a.option_strings} - {"--help"}
        groups = {
            ("required",) * g.required + tuple(a.option_strings[-1] for a in g._group_actions)
            for g in leaf._mutually_exclusive_groups
        }
        yield name, (options, groups)


def test_each_subcommand_registers_only_the_options_its_handler_reads():
    found = dict(_subcommands(cli.build_parser()))
    assert {name: options for name, (options, _) in found.items()} == OPTIONS
    assert {name: groups for name, (_, groups) in found.items()} == GROUPS
    assert sum(len(options) for options, _ in found.values()) == 169


# (default, required) of every option whose default is not None or that
# must be given; every other option defaults to None and may be left out
_HUMAN = {"--format": ("human", False)}
_REQ = (None, True)
_GAMMA_DEFAULTS = _HUMAN | {"--gamma": ("custom", False), "--mode": ("exact", False)}
DEFAULTS = {
    "large check": _HUMAN | {"--n": _REQ, "--k": (1, False), "--paranoid": (False, False)},
    "large minimal": _HUMAN | {"--x": _REQ, "--n": _REQ, "--budget": (10 ** 6, False)},
    "large pigeonhole": _HUMAN | {"--b": _REQ, "--sparsity": ("none", False), "--strict": (False, False),
                                 "--coloring": _REQ},
    "large decompose": _HUMAN | {"--n": _REQ, "--m": _REQ},
    "large fuse": _HUMAN | {"--blocks": _REQ, "--a": _REQ, "--b": _REQ},
    "apart": _HUMAN | {"--x": _REQ, "--y": _REQ},
    "grouping find": _HUMAN | {"--l0": _REQ, "--l1": _REQ, "--coloring": _REQ},
    "grouping check": _HUMAN | {"--witness": _REQ, "--l0": _REQ, "--l1": _REQ, "--coloring": _REQ},
    "gamma large": _GAMMA_DEFAULTS | {"--r": _REQ, "--s": (1, False)},
    "gamma dense": _GAMMA_DEFAULTS | {"--m": _REQ},
    "em extract": _HUMAN | {"--n": _REQ, "--scaled": (False, False), "--coloring": _REQ},
    "ads q": _HUMAN | {"--n": _REQ, "--successor": ("drop_max", False), "--coloring": _REQ},
    "ads extract": _HUMAN | {"--n": _REQ, "--coloring": _REQ},
    "lowerbound tree": _HUMAN | {"--base": _REQ, "--rank": _REQ, "--materialize": (False, False),
                                "--budget": (10 ** 6, False)},
    "lowerbound fx": _HUMAN | {"--base": (3, False), "--rank": _REQ, "--budget": (10 ** 5, False)},
    "lowerbound verify": _HUMAN | {"--n": _REQ, "--base": (3, False), "--mode": ("exhaustive", False)},
    "bounds-table": _HUMAN | {"--n-max": _REQ, "--k": (2, False)},
    "formula parse": _HUMAN,
    "formula eval": _HUMAN | {"--param-a": (0, False), "--param-A": ("", False)},
    "formula weaken": _HUMAN,
}
HANDLERS = {name: "cmd_" + name.replace(" ", "_").replace("-", "_") for name in OPTIONS} | {
    "gamma large": "cmd_gamma", "gamma dense": "cmd_gamma",
}


def test_each_subcommand_keeps_its_defaults_requirements_and_handler():
    leaves = dict(_leaf_parsers(cli.build_parser()))
    found = {
        name: {
            a.option_strings[-1]: (a.default, a.required)
            for a in leaf._actions
            if a.option_strings and a.option_strings[-1] != "--help" and (a.default, a.required) != (None, False)
        }
        for name, leaf in leaves.items()
    }
    assert found == DEFAULTS
    handlers = {name: leaf.get_default("handler") for name, leaf in leaves.items()}
    assert {name: handler.__name__ for name, handler in handlers.items()} == HANDLERS
    assert all(getattr(cli, name) is handlers[sub] for sub, name in HANDLERS.items())


@pytest.mark.parametrize(
    "argv",
    [
        ["large", "check", "--interval", "3:10", "--n", "1", "--seed", "1"],
        ["large", "check", "--interval", "3:10", "--n", "1", "--mode", "greedy"],
        ["formula", "parse", "--floor", "3", "x < y"],
        ["large", "check", "--interval", "3:10", "--n", "1", "--floor", "0"],
        ["apart", "--x", "{x}", "--y", "{y}", "--floor", "0"],
        ["apart", "--x", "{x}", "--y", "{y}", "--budget", "5"],
    ],
    ids=["check --seed", "check --mode", "parse --floor", "check --floor", "apart --floor", "apart --budget"],
)
def test_removed_options_exit_3(tmp_path, capsys, argv):
    files = {"{x}": write_set(tmp_path, "x.txt", [3, 4]), "{y}": write_set(tmp_path, "y.txt", [9, 10])}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("usage error: unrecognized arguments") and "Traceback" not in err
