"""Exact tools for the maximal spread between two experts' opinions.

Two experts observe the same random outcome through different finite lenses
and each reports a conditional probability for one shared event.  This
package computes, certifies, and searches for the largest probability that
the two reports differ by at least ``1 - delta``, entirely in exact rational
arithmetic.
"""

from __future__ import annotations

from .config import (
    Cell,
    ConfigError,
    Configuration,
    Delta,
    DomainError,
    ExpertSpreadError,
    InternalStateError,
    Rational,
    ReduceContradictionError,
    SearchSpaceError,
    Stats,
    TransformContractError,
    compute_stats,
    load_config,
    dump_config,
    make_configuration,
    normalize,
    validate_delta,
)
from .bounds import (
    BoundReport,
    certify_upper_bound,
    correlation_example,
    extremal_config,
    halfpoint_example,
    lambda_sharp,
    make_report,
    pitman_upper,
)
from .transforms import (
    TransformTrace,
    augment,
    canonicalize,
    diagonal_swap,
    is_canonical,
    merge_columns,
    merge_rows,
    purify_border_cell,
    reduce,
    transpose,
    zigzag_normalize,
)
from .search import (
    SearchResult,
    exhaustive_search,
    fuzz_transforms,
    hill_climb,
)
from .discretize import (
    Atom,
    RawSpace,
    grid_coarsen,
    to_configuration,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BoundReport",
    "Cell",
    "ConfigError",
    "Configuration",
    "Delta",
    "DomainError",
    "ExpertSpreadError",
    "InternalStateError",
    "Rational",
    "RawSpace",
    "ReduceContradictionError",
    "SearchResult",
    "SearchSpaceError",
    "Stats",
    "TransformContractError",
    "TransformTrace",
    "augment",
    "canonicalize",
    "certify_upper_bound",
    "compute_stats",
    "correlation_example",
    "diagonal_swap",
    "dump_config",
    "exhaustive_search",
    "extremal_config",
    "fuzz_transforms",
    "grid_coarsen",
    "halfpoint_example",
    "hill_climb",
    "is_canonical",
    "lambda_sharp",
    "load_config",
    "make_configuration",
    "make_report",
    "merge_columns",
    "merge_rows",
    "normalize",
    "pitman_upper",
    "purify_border_cell",
    "reduce",
    "to_configuration",
    "transpose",
    "validate_delta",
    "zigzag_normalize",
    "__version__",
]
