"""End-to-end evaluation pipeline and the JSON report it produces."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .analysis import best_point_for_alpha, convex_hull, dominance_map, isometric_through
from .core import RrocPoint, _total_losses, metrics, over_under, total_loss
from .curve import RrocCurve, aoc, distinct_mask, normalized_curve, rroc_curve
from .data import Dataset, load_predictions
from .errors import ConfigError, DataError
from .shift import _optimal_vertices, default_alpha_grid

__all__ = ["OUTPUT_KINDS", "RunConfig", "EvaluationReport", "run", "error_density"]

SCHEMA_VERSION = "1"
OUTPUT_KINDS = ("points", "curves", "hull", "dominance", "cost", "density")
DEFAULT_OUTPUTS = ("points", "curves", "hull", "dominance")
DENSITY_POINTS = 256


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one evaluation run."""

    input: Optional[str] = None
    alphas: Tuple[float, ...] = ()
    outputs: Tuple[str, ...] = DEFAULT_OUTPUTS
    normalize: bool = False
    reproducible: bool = False

    def __post_init__(self):
        unknown = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if unknown:
            raise ConfigError(
                f"unknown outputs {unknown!r} (choose from {', '.join(OUTPUT_KINDS)})"
            )
        if not self.outputs:
            raise ConfigError("at least one output kind is required")
        bad = [a for a in self.alphas if not 0.0 <= a <= 1.0]
        if bad:
            raise ConfigError(f"alpha values outside [0, 1]: {bad!r}")


@dataclass
class EvaluationReport:
    """Aggregate of metrics, curves, hull, dominance and cost curves.

    Serializes losslessly to strict JSON: no NaN/Infinity tokens are ever
    emitted, and the JSON is compact unless an indent is given. Curves carry
    their interior vertices only and hulls their finite frontier points; the
    symbolic extremes at (0, -inf) and (inf, 0) are implied by the schema.
    """

    schema_version: str
    tool_version: str
    config: dict
    n: int
    models: Dict[str, dict]
    hull: Optional[dict] = None
    dominance: Optional[List[dict]] = None
    alpha_queries: Optional[List[dict]] = None
    generated_at: Optional[str] = None

    def to_json(self, indent: Optional[int] = None) -> str:
        """The report as strict JSON; ``indent=2`` pretty-prints it.

        Keys follow the field order; fields that are None are left out.
        """
        fields = {k: v for k, v in vars(self).items() if v is not None}
        separators = None if indent is not None else (",", ":")
        return json.dumps(fields, indent=indent, separators=separators, allow_nan=False) + "\n"


def error_density(errors):
    """Gaussian kernel density of an error vector at DENSITY_POINTS x values.

    Silverman bandwidth 0.9 * min(std, IQR/1.34) * n**(-1/5); degenerate
    spreads fall back to a narrow kernel so constant error vectors still
    render as a spike.

    Above the fine-grid size the errors are linearly binned onto a refinement
    of the x grid, at most h/64 apart, and convolved once with the sampled
    kernel by FFT; the result is within 1e-4 of the peak of the exact kernel
    sum. The exact sum runs instead when it is as cheap (n <= M fine cells)
    or binning would be inaccurate: more than 2**16 cells, or x values that
    floats cannot place on the fine grid.
    """
    e = np.asarray(errors, dtype=float)
    n = e.size
    q75, q25 = np.percentile(e, [75, 25])
    candidates = [c for c in (float(np.std(e)), (q75 - q25) / 1.34) if c > 0]
    spread = min(candidates) if candidates else 0.0
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        h = max(1e-3 * max(abs(float(e[0])), 1.0), 1e-12)
    xs = np.linspace(e.min() - 3 * h, e.max() + 3 * h, DENSITY_POINTS)
    sums = _binned_kernel_sums(e, xs, h)
    if sums is None:
        # The exact sum: the kernel matrix is summed a block of grid rows at a
        # time, about 2**18 entries each, so memory stays linear in n; each
        # row's sum is unchanged.
        sums = np.empty(DENSITY_POINTS)
        rows = max(1, 2**18 // n)
        for i in range(0, DENSITY_POINTS, rows):
            z = (xs[i:i + rows, None] - e[None, :]) / h
            sums[i:i + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    return xs, sums / (n * h * np.sqrt(2 * np.pi))


def _binned_kernel_sums(e, xs, h):
    """Kernel sums at xs by linear binning and FFT, or None where the exact sum runs.

    The fine grid has M = (len(xs) - 1) * r + 1 nodes, at most h/64 apart,
    and every r-th node is an x. Each error splits its unit weight between
    its two neighbouring nodes; one zero-padded FFT convolves the weights
    with the kernel sampled out to 40 h, past where exp underflows to 0.
    """
    lo, hi = xs[0], xs[-1]
    cells = (hi - lo) / ((xs.size - 1) * h) * 64
    if not cells <= (2**16 - 1) / (xs.size - 1):  # M > 2**16: the range is too wide for h
        return None
    r = math.ceil(cells)
    M = (xs.size - 1) * r + 1
    d = (hi - lo) / (M - 1)
    # Far from 0 against h, float spacing moves the xs off the fine nodes.
    if e.size <= M or not (d > 0 and np.abs((xs - lo) / d - r * np.arange(xs.size)).max() <= 1e-3):
        return None
    t = (e - lo) / d
    j = t.astype(np.intp)
    t -= j
    weights = np.bincount(j, 1 - t, M) + np.bincount(j + 1, t, M)
    L = min(math.ceil(40 * h / d), M - 1)
    kernel = np.exp(-0.5 * (np.arange(-L, L + 1) * (d / h)) ** 2)
    size = 1 << (M + 2 * L - 1).bit_length()
    sums = np.fft.irfft(np.fft.rfft(weights, size) * np.fft.rfft(kernel, size), size)
    return np.maximum(sums[L:L + M:r], 0.0)


def _point_dict(point: RrocPoint, scale: float) -> dict:
    return {"over": point.over / scale, "under": point.under / scale}


def _analyze_model(
    model_id: str, e: np.ndarray, config: RunConfig
) -> Tuple[dict, RrocPoint, RrocCurve]:
    """The report entry of one model, with its point and curve."""
    wants = set(config.outputs)
    # Overflow is reported below as a data error, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        m = metrics(e)
        point = over_under(e)
        curve = rroc_curve(e, model_id=model_id)
        area = aoc(curve)
    scale = float(e.size) if config.normalize else 1.0

    aggregates = (m.mae, m.mse, m.bias, m.variance, m.mmse, point.over, point.under, area)
    if not all(math.isfinite(x) for x in aggregates):
        raise DataError(
            f"model {model_id!r}: error sums overflow to non-finite values; rescale the input"
        )
    entry: dict = {
        "metrics": {
            "mae": m.mae,
            "mse": m.mse,
            "bias": m.bias,
            "variance": m.variance,
            "mmse": m.mmse,
        },
        "aoc": area,
        "normalized_aoc": area / curve.n**2,
    }
    if "points" in wants:
        entry["point"] = _point_dict(point, scale)
    if "curves" in wants:
        reported = normalized_curve(curve) if config.normalize else curve
        columns = (reported.over, reported.under, reported.shift, reported.n_over, reported.n_under)
        entry["curve"] = {
            "normalized": reported.normalized,
            "distinct_vertex_count": int(np.count_nonzero(distinct_mask(reported.over, reported.under))),
            "vertices": [
                {"over": o, "under": u, "shift": s, "n_over": a, "n_under": b}
                for o, u, s, a, b in zip(*(c.tolist() for c in columns))
            ],
        }
    if "cost" in wants:
        grid = default_alpha_grid()
        # Per example, the unshifted model costs its point's loss and the
        # optimally shifted one the loss of its curve's optimal vertex.
        none_losses = _total_losses(point.over, point.under, grid) / e.size
        optimal_losses = _optimal_vertices(curve, grid)[1] / e.size
        entry["cost_curves"] = {
            "alphas": grid.tolist(),
            "none": none_losses.tolist(),
            "optimal_constant": optimal_losses.tolist(),
        }
    if "density" in wants:
        with np.errstate(over="ignore"):
            xs, density = error_density(e)
        if not np.all(np.isfinite(density)):
            raise DataError(
                f"model {model_id!r}: the error density overflows for so narrow a spread; rescale the input"
            )
        entry["density"] = {"x": xs.tolist(), "density": density.tolist()}
    return entry, point, curve


def run(config: RunConfig, dataset: Optional[Dataset] = None) -> EvaluationReport:
    """Load, analyze every model, and assemble the report.

    Everything runs in the caller's thread, models in order, so reports are
    deterministic for a given config and input.
    """
    if dataset is None:
        if config.input is None:
            raise ConfigError("no input file configured")
        dataset = load_predictions(config.input)

    model_ids = dataset.model_ids
    models, points, curves = {}, {}, {}
    for m in model_ids:
        models[m], points[m], curves[m] = _analyze_model(m, dataset.errors(m), config)

    wants = set(config.outputs)
    scale = float(dataset.n) if config.normalize else 1.0
    hull_dict = None
    dominance_list = None
    if "hull" in wants or "dominance" in wants:
        hull = convex_hull(curves if "curves" in wants else points)
        ids = hull.model_ids
        if "hull" in wants:
            hull_dict = {
                "level": "curves" if "curves" in wants else "points",
                "points": [
                    {"over": o, "under": u, "model": ids[r], "vertex_index": None if k < 0 else k}
                    for o, u, r, k in zip((hull.over / scale).tolist(), (hull.under / scale).tolist(),
                                          hull.model_rank.tolist(), hull.vertex_index.tolist())
                ],
            }
        if "dominance" in wants:
            dm = dominance_map(hull)
            rows = dm.hull_row
            dominance_list = [
                {"alpha_low": low, "alpha_high": high, "model": ids[r], "point": {"over": o, "under": u}}
                for low, high, r, o, u in zip(
                    dm.alpha_low.tolist(), dm.alpha_high.tolist(), hull.model_rank[rows].tolist(),
                    (hull.over[rows] / scale).tolist(), (hull.under[rows] / scale).tolist(),
                )
            ]

    alpha_queries = None
    if config.alphas:
        alpha_queries = []
        for a in config.alphas:
            losses = {m: total_loss(points[m], a) for m in model_ids}
            best_point, _ = best_point_for_alpha(list(points.values()), a)
            best_id = min(m for m in model_ids if points[m] == best_point)
            iso = isometric_through(best_point, a)
            alpha_queries.append(
                {
                    "alpha": a,
                    "losses": losses,
                    "best": best_id,
                    "isometric": {
                        "slope": iso.slope if np.isfinite(iso.slope) else None,
                        "intercept": iso.intercept,
                        "level": iso.level,
                    },
                }
            )

    return EvaluationReport(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        config=asdict(config),
        n=dataset.n,
        models=models,
        hull=hull_dict,
        dominance=dominance_list,
        alpha_queries=alpha_queries,
        generated_at=None if config.reproducible else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
