"""Source-level rules for the package: postconditions must not rely on
`assert`, which `python -O` strips."""

import ast
from pathlib import Path

import omegalarge

SRC = Path(omegalarge.__file__).parent

# asserts that may stay: each names its module, enclosing function and test.
# Both `w_assemble` asserts are backed by the certificate re-check that ends
# `fuse`.  Any `assert isinstance(...)` is a type narrowing and may stay too.
ALLOWED = {
    ("extract.py", "w_assemble", "tuple(vals[pos:pos + len(sub_vals)]) == sub_vals"),
    ("extract.py", "w_assemble", "len(children) == head"),
}


def _asserts(tree: ast.AST, func: str = "<module>"):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _asserts(node, node.name)
        else:
            if isinstance(node, ast.Assert):
                yield func, node
            yield from _asserts(node, func)


def _is_narrowing(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
    )


def test_no_asserts_outside_the_allowlist():
    found, offending = set(), []
    for path in sorted(SRC.rglob("*.py")):
        for func, node in _asserts(ast.parse(path.read_text(), str(path))):
            key = (path.name, func, ast.unparse(node.test))
            if _is_narrowing(node.test):
                continue
            found.add(key)
            if key not in ALLOWED:
                offending.append(f"{path.name}:{node.lineno} in {func}: assert {key[2]}")
    assert not offending, "\n".join(offending)
    assert found == ALLOWED  # stale entries are dropped from the list
