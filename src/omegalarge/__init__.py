"""Checkers, extractors and certificates for quantitative largeness with
apartness constraints: recursive size notions over finite sets of naturals,
bounded-arithmetic sentences driving block apartness, grouping and
homogenization procedures, and the canonical-tree lower-bound construction.

`import omegalarge` loads no submodule.  A public name is looked up in the
module that defines it on first use (PEP 562), so a caller pays only for the
modules it touches; `omegalarge.check_large` is `omegalarge.largeness.check_large`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_BY_MODULE = {
    "budget": ("Budget", "BudgetExceeded"),
    "extract": (
        "CountingFailure", "DecomposeResult", "ExtractionFailure", "FuseResult",
        "PigeonholeResult", "decompose_mixed", "fuse", "pigeonhole_extract"
    ),
    "formula": (
        "BUILTIN_PSI0", "EMPTY_PARAM", "HOMOGENEOUS", "MONOTONE_ASCENDING", "MONOTONE_DESCENDING",
        "TOP", "TRANSITIVE", "FormulaSyntaxError", "Pi03Sentence", "PrefixShapeError",
        "PrefixedSentence", "QuantStep", "RtLikeStatement", "SecondOrderParam", "compile_formula",
        "evaluate", "formula_text", "parse", "weakly_pi04_transform"
    ),
    "grouping": (
        "ABSENT", "EXHAUSTED", "FOUND", "ColoringMismatch", "GroupingWalk", "GroupingWitness",
        "LSpec", "MalformedWitness", "SearchOutcome", "find_grouping", "find_homogeneous",
        "find_transitive", "is_grouping"
    ),
    "largeness": (
        "Block", "Certificate", "LargenessSpec", "Leaf", "Node", "PreconditionError",
        "SizeOverflow", "check_large", "is_large", "is_minimal", "is_plain_large",
        "minimal_interval_card", "minimal_large_interval", "t_apart", "verify_certificate"
    ),
    "lowerbound": (
        "CONFIRMED", "CONSISTENT", "COUNTEREXAMPLE", "BlockAddress", "BlockfreeView",
        "CanonicalTree", "LowerBoundReport", "tree", "verify_lower_bound"
    ),
    "ramsey": (
        "BoundsRow", "DensityParams", "EmConstants", "EmResult", "Mode", "QTotalityError",
        "Verdict", "ads_extract", "ads_q_coloring", "bounds_table", "bounds_tsv", "em_extract",
        "is_large_gamma", "is_n_dense"
    ),
    "sets": (
        "ColoringTable", "FinSet", "SparsityPolicy", "is_sparse", "is_transitive",
        "restrict_coloring"
    ),
}

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in _BY_MODULE.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the module behind a public name (or a library submodule
    itself) on first use, and bind the name here so later lookups are
    plain attribute reads."""
    if name in _BY_MODULE:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
