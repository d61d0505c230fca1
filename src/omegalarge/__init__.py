"""Checkers, extractors and certificates for quantitative largeness with
apartness constraints: recursive size notions over finite sets of naturals,
bounded-arithmetic sentences driving block apartness, grouping and
homogenization procedures, and the canonical-tree lower-bound construction.
"""

from .budget import Budget, BudgetExceeded
from .extract import (
    CountingFailure,
    DecomposeResult,
    ExtractionFailure,
    FuseResult,
    PigeonholeResult,
    decompose_mixed,
    fuse,
    pigeonhole_extract,
)
from .formula import (
    BUILTIN_PSI0,
    EMPTY_PARAM,
    HOMOGENEOUS,
    MONOTONE_ASCENDING,
    MONOTONE_DESCENDING,
    TOP,
    TRANSITIVE,
    FormulaSyntaxError,
    Pi03Sentence,
    PrefixShapeError,
    PrefixedSentence,
    QuantStep,
    RtLikeStatement,
    SecondOrderParam,
    compile_formula,
    evaluate,
    formula_text,
    parse,
    weakly_pi04_transform,
)
from .grouping import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    ColoringMismatch,
    GroupingWalk,
    GroupingWitness,
    LSpec,
    MalformedWitness,
    SearchOutcome,
    find_grouping,
    find_homogeneous,
    find_transitive,
    is_grouping,
)
from .largeness import (
    Block,
    Certificate,
    LargenessSpec,
    Leaf,
    Node,
    PreconditionError,
    SizeOverflow,
    check_large,
    is_large,
    is_minimal,
    is_plain_large,
    minimal_interval_card,
    minimal_large_interval,
    t_apart,
    verify_certificate,
)
from .lowerbound import (
    CONFIRMED,
    CONSISTENT,
    COUNTEREXAMPLE,
    BlockAddress,
    BlockfreeView,
    CanonicalTree,
    LowerBoundReport,
    tree,
    verify_lower_bound,
)
from .ramsey import (
    BoundsRow,
    DensityParams,
    EmConstants,
    EmResult,
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
from .sets import ColoringTable, FinSet, SparsityPolicy, is_sparse, is_transitive, restrict_coloring

__version__ = "0.1.0"
