"""Perception-weighted graph strength measurement and network dismantling.

Strength is scored from the distribution of connected-component sizes: each
size carries a weight calibrated against human strength estimates, and a
graph's strength is the weighted sum ``size * weight * count`` over its
components. The package fits those weights by least squares from survey
data, finds the node removals that minimize residual strength by exact
search, emits the equivalent integer-program model, and scores metric
agreement against survey ground truth.
"""

from .dismantle import (
    DismantleQuery,
    DismantleResult,
    ExactSearchBudgetError,
    best_removal,
)
from .datasets import (
    EdgeListFile,
    EdgeListParseError,
    GeneratorSpec,
    generate,
    load_edge_list,
    save_edge_list,
)
from .evaluation import (
    MatchReport,
    RankedGroundTruth,
    compare_suite,
    match_stats,
    rmse,
)
from .graph import EmptyGraphError, Graph, components, remove_nodes
from .ilp import ConstraintViolationError, emit_ilp, verify_ilp_solution
from .metrics import (
    StrengthValue,
    WeightCoverageError,
    WeightVector,
    cole1,
    cole2,
    gfp_score,
    load_weights,
    save_weights,
    sigma,
)
from .weights import (
    DesignMatrix,
    FitResult,
    SurveyDataset,
    SurveyRecord,
    build_system,
    default_weights,
    fit_weights,
    load_survey_csv,
)

__version__ = "0.1.0"
