"""Multiple systems estimation with model-selection-aware bootstrap intervals."""

from .core import (
    CountTable,
    ModelSpec,
    is_hierarchical,
)
from .modelspace import (
    ModelSpace,
    bic_ranks,
    enumerate_models,
    neighbors,
    random_order2_starts,
    rank_order,
)
from .sparsity import ReducedProblem, reduce_for_sparsity
from .glm import (
    FitResult,
    FitSettings,
    NoModelFoundError,
    fit,
    select_best_bic,
    select_by_chisq,
)
from .existence import (
    ExistenceCache,
    fr_check,
    lp_max_s,
)
from .bootstrap import (
    BcaComponents,
    DiagnosticsReport,
    IntervalResult,
    SweepState,
    bca_components,
    bca_interval,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    jackknife_tables,
    ntop_sweep,
    resample,
    resamples,
    restricted_bootstrap,
)
from .io import load_fixture, load_table, parse_table

__version__ = "0.1.0"

__all__ = [
    "BcaComponents",
    "CountTable",
    "DiagnosticsReport",
    "ExistenceCache",
    "FitResult",
    "FitSettings",
    "IntervalResult",
    "ModelSpace",
    "ModelSpec",
    "NoModelFoundError",
    "ReducedProblem",
    "SweepState",
    "bca_components",
    "bca_interval",
    "bic_ranks",
    "chisq_bootstrap",
    "diagnostics",
    "downhill_bootstrap",
    "enumerate_models",
    "fit",
    "fr_check",
    "is_hierarchical",
    "jackknife_tables",
    "load_fixture",
    "load_table",
    "lp_max_s",
    "neighbors",
    "ntop_sweep",
    "parse_table",
    "random_order2_starts",
    "rank_order",
    "reduce_for_sparsity",
    "resample",
    "resamples",
    "restricted_bootstrap",
    "select_best_bic",
    "select_by_chisq",
]
