"""The library names the benchmark harness in `perfbench/` calls or patches
all resolve, so removing or renaming one fails here rather than in a
benchmark run.  The harness files are read as text and parsed, never
imported or changed.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

import omegalarge
import omegalarge.cli  # noqa: F401 - the harness imports it before calling ol.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _resolve(owner, dotted: str):
    for name in dotted.split("."):
        owner = getattr(owner, name)
    return owner


def _dotted_ol_names() -> list[str]:
    """Every dotted `ol.<name>` the harness writes, without the `ol.`."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        found.update(re.findall(r"\bol\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", path.read_text()))
    return sorted(found)


def _tracing_tables() -> dict:
    """SPAN_FUNCS and SPAN_METHODS, as the literals tracing.py assigns."""
    tree = ast.parse(TRACING.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("SPAN_FUNCS", "SPAN_METHODS")
    }


def _patched_attributes() -> list[tuple[str, str]]:
    """(owner, attribute) for each `self._patch(owner, "attribute", ...)` in
    `Tracer.install`, the owner's local alias replaced by what it names."""
    tree = ast.parse(TRACING.read_text())
    (install,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "install"]
    aliases = {
        target.id: ast.unparse(node.value)
        for node in ast.walk(install) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    return [
        (aliases.get(ast.unparse(call.args[0]), ast.unparse(call.args[0])), call.args[1].value)
        for call in ast.walk(install)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "self._patch"
        and isinstance(call.args[1], ast.Constant)
    ]


@pytest.mark.parametrize("dotted", _dotted_ol_names())
def test_every_ol_name_resolves(dotted):
    _resolve(omegalarge, dotted)


def test_the_names_read_include_the_requirement_and_em_constants():
    # the scan finds what it is meant to find
    assert {"LSpec.card", "EmConstants.scaled", "find_grouping", "em_extract"} <= set(_dotted_ol_names())
    assert omegalarge.LSpec is omegalarge.LargenessSpec


def test_the_spans_tracing_wraps_resolve():
    tables = _tracing_tables()
    assert set(tables) == {"SPAN_FUNCS", "SPAN_METHODS"}
    for home, attr in tables["SPAN_FUNCS"].values():
        assert callable(getattr(import_module(f"omegalarge.{home}"), attr)), (home, attr)
    for name, owners in tables["SPAN_METHODS"].items():
        for home, cls_name in owners:
            assert callable(getattr(getattr(import_module(f"omegalarge.{home}"), cls_name), name))


def test_the_attributes_tracing_patches_resolve():
    patched = _patched_attributes()
    assert ("formula.Pi03Sentence", "holds_bounded") in patched
    for owner, attr in patched:
        module, dotted = owner.split(".", 1)
        assert callable(getattr(_resolve(import_module(f"omegalarge.{module}"), dotted), attr)), (owner, attr)
