"""Source-level rules for the package: postconditions must not rely on
`assert`, which `python -O` strips, only the θ compiler runs generated
code, a sentence calls its compiled θ only through `theta_at`, no nested
function calls itself, formula.py recurses on nesting depth only, the
grouping walk's nodes build no set, each input precondition is checked by
its one owner, only the coloring table reads its own layout, and every
function and module-level name is called or named from somewhere."""

import ast
import re
from pathlib import Path

import omegalarge

SRC = Path(omegalarge.__file__).parent
TESTS = Path(__file__).parent

# asserts that may stay, by module, enclosing function and test: none, so
# every postcondition raises.  An `assert isinstance(...)` is a type
# narrowing and may stay.
ALLOWED = set()


# calls of the builtins that run generated code, by module, enclosing
# function and builtin: `compile_formula` compiles each θ to one function
DYNAMIC = {"exec", "eval", "compile"}
ALLOWED_DYNAMIC = {
    ("formula.py", "compile_formula", "exec"),
    ("formula.py", "compile_formula", "compile"),
}


def _nodes(tree: ast.AST, kind: type, func: str = "<module>"):
    """(enclosing function, node) for every `kind` node under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _nodes(node, kind, node.name)
        else:
            if isinstance(node, kind):
                yield func, node
            yield from _nodes(node, kind, func)


def _sources(root: Path = SRC):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _is_narrowing(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
    )


def test_no_asserts_outside_the_allowlist():
    found, offending = set(), []
    for path, tree in _sources():
        for func, node in _nodes(tree, ast.Assert):
            key = (path.name, func, ast.unparse(node.test))
            if _is_narrowing(node.test):
                continue
            found.add(key)
            if key not in ALLOWED:
                offending.append(f"{path.name}:{node.lineno} in {func}: assert {key[2]}")
    assert not offending, "\n".join(offending)
    assert found == ALLOWED  # stale entries are dropped from the list


def test_no_nested_function_names_itself():
    # a recursive closure is a function <-> cell cycle, which keeps the
    # function and all it closes over alive until a full garbage collection
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    offending = sorted({
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in _sources()
        for outer in ast.walk(tree)
        if isinstance(outer, funcs)
        for node in ast.walk(outer)
        if node is not outer and isinstance(node, funcs)
        and any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node))
    })
    assert not offending, "\n".join(offending)


def test_only_the_theta_compiler_runs_generated_code():
    found, offending = [], []
    for path, tree in _sources():
        for func, node in _nodes(tree, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in DYNAMIC:
                key = (path.name, func, node.func.id)
                found.append(key)
                if key not in ALLOWED_DYNAMIC:
                    offending.append(f"{path.name}:{node.lineno} in {func}: {node.func.id}(...)")
    assert not offending, "\n".join(offending)
    # one call each: stale entries are dropped from the list
    assert sorted(found) == sorted(ALLOWED_DYNAMIC)


def test_theta_is_called_only_through_theta_at():
    # perfbench's theta_evals counter and the at-most-once test patch
    # `theta_at`; a call of the compiled θ anywhere else hides from both
    tree = ast.parse((SRC / "formula.py").read_text())
    (sentence,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Pi03Sentence"]
    # θ is bound once, by the constructor, and kept under "fn", which
    # nothing else in the module names
    binds = [(func, ast.unparse(node)) for func, node in _nodes(sentence, ast.Call)
             if ast.unparse(node.func).startswith("compile_formula(")]
    assert binds == [("__post_init__", "compile_formula(self.theta, ['x', 'y', 'z'])(self.param_a, self.param_A.member)")]
    mentions = sorted(
        (func, type(node).__name__)
        for func, node in _nodes(tree, (ast.Constant, ast.keyword))
        if (node.arg if isinstance(node, ast.keyword) else node.value) == "fn"
    )
    assert mentions == [("__post_init__", "keyword"), ("theta_at", "Constant")]
    (theta_at,) = [n for n in sentence.body if isinstance(n, ast.FunctionDef) and n.name == "theta_at"]
    assert [ast.unparse(n) for n in theta_at.body] == ["return self._cache['fn'](x, y, z)"]


# the functions of formula.py that call themselves, each with its reason:
# every other walk keeps its own stack, so a flat chain of any length is read
# and printed and only nesting depth meets the interpreter's recursion limit
SELF_CALLS = {
    "_Parser.parse_binary": "once per binding level, never per chain link; callers of parse read a RecursionError as exit 3",
    "_Parser.parse_unary": "once per nested `not` or quantifier; callers of parse read a RecursionError as exit 3",
    "_ThetaSource.emit": "once per nesting level, never per chain link; its callers read a RecursionError as exit 3",
}


def test_formula_recurses_on_nesting_depth_only():
    tree = ast.parse((SRC / "formula.py").read_text())
    found = set()
    for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        prefix = "" if scope is tree else f"{scope.name}."
        for func in scope.body:
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and ast.unparse(n.func) in (func.name, f"self.{func.name}")
                for n in ast.walk(func)
            ):
                found.add(prefix + func.name)
    assert found == set(SELF_CALLS)


def test_grouping_walk_nodes_build_no_finset():
    # a node, with the skip chain it scans, is the walk's unit of work:
    # `_holds` answers a bare count (card:M, exponent 0 under TOP) from the
    # open block's length, and only another requirement builds its set; of
    # the walk's methods only `_hit`, which tests a family, builds sets, so
    # neither walk's loop builds any of its own
    tree = ast.parse((SRC / "grouping.py").read_text())
    (walk,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GroupingWalk"]
    methods = [n for n in walk.body if isinstance(n, ast.FunctionDef) and n.name != "_hit"]
    assert {"first_minimal", "_visit", "_node", "_start", "_extension", "_cross_ok"} <= {m.name for m in methods}
    builds = [
        f"grouping.py:{n.lineno} {ast.unparse(n)}"
        for method in methods
        for n in ast.walk(method)
        if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "FinSet"
    ]
    assert not builds, "\n".join(builds)


# set relations a coverage test could be written with, besides comparisons
SET_TESTS = {"issubset", "issuperset", "isdisjoint", "difference"}


def _reads_precondition(node: ast.AST) -> bool:
    """A call of a sentence's `floor()` or a coloring's `covers()`, or a
    comparison or set-relation call that reads a coloring's `.domain`."""
    method = node.func.attr if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) else None
    if method in ("floor", "covers"):
        return True
    return (isinstance(node, ast.Compare) or method in SET_TESTS) and any(
        isinstance(n, ast.Attribute) and n.attr == "domain" for n in ast.walk(node)
    )


def test_each_input_precondition_has_one_owner():
    # a sentence's floor is read, and a coloring's domain tested for
    # coverage (by `covers` or by reading `.domain`), only by the helper
    # that owns the precondition: `_check_coloring` for a set a search
    # walks, `psi0_holds` for the one candidate psi0 reads
    readers = sorted(
        (path.name, func)
        for path, tree in _sources()
        for func, node in _nodes(tree, (ast.Call, ast.Compare))
        if _reads_precondition(node)
    )
    assert readers == [
        ("formula.py", "psi0_holds"), ("largeness.py", "_check_admissible"), ("largeness.py", "_check_coloring")
    ]


# a coloring table's layout: its value-to-position index, its pair row
# offsets and its tuple ranks
LAYOUT = {"_pos", "_row", "_lex_rank"}


def test_only_the_coloring_table_reads_its_layout():
    # how the flat table is indexed is ColoringTable's decision; everything
    # else reads colors through its lookup, `image` or `covers`
    readers, table = [], None
    for path, tree in _sources():
        for node in tree.body:
            if path.name == "sets.py" and isinstance(node, ast.ClassDef) and node.name == "ColoringTable":
                table = node
                continue
            readers += [f"{path.name}:{line} {name}" for name, line in _mentions(node) if name in LAYOUT]
    assert not readers, "\n".join(readers)
    assert LAYOUT <= {name for name, _ in _mentions(table)}


# a string that is a name or a dotted path of names (getattr, monkeypatch,
# the package's export table) mentions each of its parts
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
# called by argparse, never by name
NAMED_ELSEWHERE = {("cli.py", "error")}


def _mentions(tree: ast.AST):
    """(name, line) for every name, attribute, import and name-like string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                yield part, node.lineno


def _all_mentions() -> dict[str, list[tuple[Path, int]]]:
    mentions: dict[str, list[tuple[Path, int]]] = {}
    for root in (SRC, TESTS):
        for path, tree in _sources(root):
            for name, line in _mentions(tree):
                mentions.setdefault(name, []).append((path, line))
    return mentions


def _unnamed(definitions) -> list[str]:
    """The (path, name, node) definitions whose name is mentioned nowhere
    outside the node's own lines; dunders are exempt."""
    mentions = _all_mentions()
    unnamed = []
    for path, name, node in definitions:
        if name.startswith("__") and name.endswith("__") or (path.name, name) in NAMED_ELSEWHERE:
            continue
        if all(p == path and node.lineno <= line <= node.end_lineno for p, line in mentions.get(name, ())):
            unnamed.append(f"{path.name}:{node.lineno} {name}")
    return unnamed


def test_every_function_is_named_outside_its_own_body():
    unnamed = _unnamed(
        (path, node.name, node)
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    assert not unnamed, "\n".join(unnamed)


def test_every_module_level_name_is_read_outside_its_assignment():
    unnamed = _unnamed(
        (path, target.id, node)
        for path, tree in _sources()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    )
    assert not unnamed, "\n".join(unnamed)
