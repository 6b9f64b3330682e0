"""Rashomon partial dependence profiles for tabular regression.

Trains a budgeted pool of regression models, keeps the near-optimal subset
(the Rashomon set), aggregates their partial dependence profiles with
bootstrap confidence bands, and scores how well the single best model's
explanation agrees with the aggregate.
"""

import os

# One OpenBLAS thread, unless the user sets another count: `--workers` is a
# run's only parallelism. More BLAS threads only spin beside the Python thread,
# on the cores the workers use, and with one the k-NN prediction bytes no
# longer depend on the machine's core count. OpenBLAS reads this when numpy
# loads it, so it is set before anything here imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .data import Dataset, Split, feature_grid, load_csv, save_csv, split
from .errors import ConfigError, DataError, RashpdpError
from .learners import (
    FAMILIES,
    SearchBudget,
    TrainedModel,
    load_pool,
    rmse,
    save_pool,
    train_pool,
)
from .metrics import (
    CorrelationResult,
    ExplanationMetrics,
    compute_metrics,
    coverage_rate,
    mwci,
    spearman,
)
from .pdp import (
    RashomonPdpResult,
    bootstrap_bands,
    member_profiles,
    pdp_single,
    rashomon_profile,
    write_profile_csv,
)
from .rashomon import RashomonSet, form_set
from .report import (
    RunConfig,
    SuiteSummaryRow,
    correlate_summary,
    read_summary_csv,
    run_dataset,
    run_suite,
    write_summary_csv,
)
from .svgplot import emit_svg

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrelationResult",
    "DataError",
    "Dataset",
    "ExplanationMetrics",
    "FAMILIES",
    "RashomonPdpResult",
    "RashomonSet",
    "RashpdpError",
    "RunConfig",
    "SearchBudget",
    "Split",
    "SuiteSummaryRow",
    "TrainedModel",
    "bootstrap_bands",
    "compute_metrics",
    "correlate_summary",
    "coverage_rate",
    "emit_svg",
    "feature_grid",
    "form_set",
    "load_csv",
    "load_pool",
    "member_profiles",
    "mwci",
    "pdp_single",
    "read_summary_csv",
    "rmse",
    "rashomon_profile",
    "run_dataset",
    "run_suite",
    "save_csv",
    "save_pool",
    "spearman",
    "split",
    "train_pool",
    "write_profile_csv",
    "write_summary_csv",
]
