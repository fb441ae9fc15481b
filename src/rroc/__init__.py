"""rroc: cost-sensitive evaluation of regression models in RROC space.

Errors decompose into total over-estimation (OVER, x-axis) and total
under-estimation (UNDER, y-axis); sweeping a constant shift over the
predictions traces a piecewise-linear curve whose area (AOC) equals the
population error variance times n^2/2. On top of that sit isometrics for any
cost asymmetry, convex hulls and dominance regions across models, optimal and
trained shift choices, and cost curves.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvexHull,
    DominanceMap,
    DominanceRegion,
    HullPoint,
    HybridSegment,
    Isometric,
    best_point_for_alpha,
    best_vertex_for_alpha,
    convex_hull,
    dominance_map,
    hybrid_segment,
    isometric_through,
)
from .core import (
    OperatingCondition,
    RrocPoint,
    SummaryMetrics,
    asymmetric_loss,
    error_vector,
    metrics,
    over_under,
    total_loss,
)
from .curve import (
    RrocCurve,
    aoc,
    aoc_brute_force,
    default_shift_grid,
    distinct_mask,
    is_convex,
    normalized_curve,
    over_under_at,
    rroc_curve,
    segment_alpha,
    segment_slopes,
)
from .data import Dataset, load_predictions, write_predictions
from .errors import ConfigError, DataError, RrocError
from .report import EvaluationReport, RunConfig, error_density, run
from .shift import (
    CostCurve,
    NoShift,
    OptimalConstantShift,
    ShiftMethod,
    TrainedConstantShift,
    apply_shift,
    cost_curve,
    default_alpha_grid,
    optimal_constant_shift,
    trained_constant_shift,
    zero_bias_shift,
)
from .svg import render_svg
from .synth import generate_synthetic

__all__ = [
    "__version__",
    "OperatingCondition", "RrocPoint", "SummaryMetrics",
    "error_vector", "over_under", "metrics", "asymmetric_loss", "total_loss",
    "RrocCurve", "rroc_curve", "over_under_at", "segment_slopes", "segment_alpha", "aoc",
    "aoc_brute_force", "default_shift_grid", "distinct_mask", "normalized_curve", "is_convex",
    "Isometric", "HybridSegment", "HullPoint", "ConvexHull",
    "DominanceRegion", "DominanceMap",
    "isometric_through", "best_point_for_alpha", "best_vertex_for_alpha",
    "hybrid_segment", "convex_hull", "dominance_map",
    "ShiftMethod", "NoShift", "OptimalConstantShift", "TrainedConstantShift",
    "CostCurve", "apply_shift", "zero_bias_shift", "optimal_constant_shift",
    "trained_constant_shift", "cost_curve", "default_alpha_grid",
    "Dataset", "load_predictions", "write_predictions",
    "RunConfig", "EvaluationReport", "run", "error_density",
    "render_svg", "generate_synthetic",
    "RrocError", "DataError", "ConfigError",
]
