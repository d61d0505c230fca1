"""The package surface, and the modules each entry point loads.

`import omegalarge` loads no submodule: public names resolve on first use
(PEP 562).  Each check runs in a fresh interpreter, so no other test's
imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every public name, by defining module, as the package exported it when its
# __init__ imported all submodules eagerly; the lazy table must keep them all.
EXPORTED = {
    "budget": "Budget BudgetExceeded",
    "extract": "CountingFailure DecomposeResult ExtractionFailure FuseResult PigeonholeResult "
               "decompose_mixed fuse pigeonhole_extract",
    "formula": "BUILTIN_PSI0 EMPTY_PARAM HOMOGENEOUS MONOTONE_ASCENDING MONOTONE_DESCENDING TOP "
               "TRANSITIVE FormulaSyntaxError Pi03Sentence PrefixShapeError PrefixedSentence "
               "QuantStep RtLikeStatement SecondOrderParam compile_formula evaluate formula_text "
               "parse weakly_pi04_transform",
    "grouping": "ABSENT EXHAUSTED FOUND GroupingWalk GroupingWitness LSpec "
                "MalformedWitness SearchOutcome find_grouping find_homogeneous find_transitive "
                "is_grouping",
    "largeness": "Block Certificate LargenessSpec Leaf Node PreconditionError SizeOverflow "
                 "check_large is_large is_minimal is_plain_large minimal_interval_card "
                 "minimal_large_interval t_apart verify_certificate",
    "lowerbound": "CONFIRMED CONSISTENT COUNTEREXAMPLE BlockAddress BlockfreeView CanonicalTree "
                  "LowerBoundReport tree verify_lower_bound",
    "ramsey": "BoundsRow EmConstants Mode QTotalityError Verdict "
              "ads_extract ads_q_coloring bounds_table bounds_tsv em_extract is_large_gamma "
              "is_n_dense",
    "sets": "ColoringTable FinSet SparsityPolicy is_sparse is_transitive",
}
NAMES = sorted(name for names in EXPORTED.values() for name in names.split())

CORE = ["omegalarge", "omegalarge.budget", "omegalarge.cli", "omegalarge.formula",
        "omegalarge.largeness", "omegalarge.record", "omegalarge.sets"]

PRELUDE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "omegalarge")

def large_check():
    from omegalarge import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["large", "check", "--interval", "3:14", "--n", "1"])
"""


def fresh(code: str):
    """The JSON value that `code`, run after PRELUDE in a new interpreter
    with the package on its path, prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh("import omegalarge\nprint(json.dumps(loaded()))") == ["omegalarge"]


def test_large_check_loads_only_its_core():
    code, modules = fresh("print(json.dumps([large_check(), loaded()]))")
    assert code == 0 and modules == CORE


def test_tree_adds_only_lowerbound():
    before, after = fresh(
        "large_check()\nbefore = loaded()\nfrom omegalarge import tree\n"
        "print(json.dumps([before, loaded()]))"
    )
    assert before == CORE
    assert sorted(set(after) - set(before)) == ["omegalarge.lowerbound"]


def test_every_export_is_its_defining_modules_object():
    mismatched = fresh(
        "import importlib, omegalarge\n"
        f"exported = {EXPORTED!r}\n"
        "print(json.dumps([f'{mod}.{name}' for mod, names in exported.items()"
        " for name in names.split() if getattr(omegalarge, name) is not"
        " getattr(importlib.import_module('omegalarge.' + mod), name)]))"
    )
    assert mismatched == []


def test_star_import_and_dir_list_the_exports():
    star, listed, all_, version = fresh(
        "import omegalarge\nns = {}\nexec('from omegalarge import *', ns)\n"
        "print(json.dumps([sorted(k for k in ns if k != '__builtins__'),"
        " dir(omegalarge), sorted(omegalarge.__all__), omegalarge.__version__]))"
    )
    assert star == NAMES and all_ == NAMES and version == "0.1.0"
    assert set(NAMES) <= set(listed)


def test_unknown_names_raise_and_submodules_resolve():
    raised, has_cli, same, modules = fresh(
        "import omegalarge\n"
        "try:\n    omegalarge.no_such_name\n    raised = False\n"
        "except AttributeError:\n    raised = True\n"
        "has_cli = hasattr(omegalarge, 'cli')\n"
        "same = omegalarge.largeness is sys.modules['omegalarge.largeness']\n"
        "print(json.dumps([raised, has_cli, same, loaded()]))"
    )
    # the package never loaded the CLI itself, so it is no attribute until imported
    assert raised and not has_cli and same
    assert modules == ["omegalarge", "omegalarge.budget", "omegalarge.formula",
                       "omegalarge.largeness", "omegalarge.record", "omegalarge.sets"]


# modules that code generation at import pulls in: `dataclasses` and, through
# it, `inspect`; the records need neither
GENERATORS = ["dataclasses", "inspect"]


def test_no_code_generator_is_loaded():
    after_check, after_all = fresh(
        "def generators():\n    return sorted(m for m in " + repr(GENERATORS) + " if m in sys.modules)\n"
        "large_check()\nafter_check = generators()\n"
        "import importlib, os, omegalarge\n"
        "for name in os.listdir(omegalarge.__path__[0]):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        importlib.import_module('omegalarge.' + name[:-3])\n"
        "assert 'omegalarge.ramsey' in sys.modules and 'omegalarge.record' in sys.modules\n"
        "print(json.dumps([after_check, generators()]))"
    )
    assert after_check == [] and after_all == []


# standard modules `large check` has no use for: `traceback` serves only an
# internal error, and `string` only the printer's layouts, read without it
UNUSED_BY_CHECK = ["string", "traceback"]


def test_large_check_loads_no_module_it_does_not_use():
    loaded_by_check = fresh(
        "large_check()\nfrom omegalarge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['large', 'check', '--interval', '3:14', '--n', '1', '--theta', 'x < y or z < y'])\n"
        "print(json.dumps(sorted(m for m in " + repr(UNUSED_BY_CHECK) + " if m in sys.modules)))"
    )
    assert loaded_by_check == []
