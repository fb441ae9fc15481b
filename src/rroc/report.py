"""End-to-end evaluation pipeline and the JSON report it produces."""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .analysis import ConvexHull, DominanceMap, convex_hull, dominance_map, isometric_through
from .core import RrocPoint, _finite, _total_losses, as_errors, metrics, over_under, total_loss
from .curve import RrocCurve, _optimal_vertices, aoc, rroc_curve
from .data import Dataset, load_predictions
from .errors import ConfigError, DataError, _shown
from .shift import default_alpha_grid

__all__ = ["RunConfig", "EvaluationReport", "run", "error_density"]

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
        bad = [a for a in self.alphas if not (isinstance(a, numbers.Real) and 0.0 <= a <= 1.0)]
        if bad:
            # Each rejected value is listed; only one too long to print is cut.
            raise ConfigError(f"alpha values outside [0, 1]: [{', '.join(map(_shown, bad))}]")
        # Stored as floats, so a Fraction or a numpy scalar writes as the equal float.
        object.__setattr__(self, "alphas", tuple(map(float, self.alphas)))


@dataclass
class EvaluationReport:
    """Aggregate of metrics, curves, hull, dominance and cost curves.

    Curves, hull and dominance are kept as columns: each model's ``curve``
    entry is the raw ``RrocCurve`` the hull was built from, ``hull`` is the
    ``ConvexHull`` and ``dominance`` the ``DominanceMap``. All three stay on
    the raw scale; ``axis_scale`` divides them when the report is written or
    drawn.

    Serializes losslessly to compact, strict schema-v1 JSON: no NaN/Infinity
    tokens are ever emitted. Curves carry their interior vertices only and
    hulls their finite frontier points; the symbolic extremes at (0, -inf)
    and (inf, 0) are implied by the schema.
    """

    schema_version: str
    tool_version: str
    config: dict
    n: int
    models: Dict[str, dict]
    hull: Optional[ConvexHull] = None
    dominance: Optional[DominanceMap] = None
    alpha_queries: Optional[List[dict]] = None
    generated_at: Optional[str] = None

    @property
    def axis_scale(self) -> float:
        """Divisor of the reported RROC coordinates: n under ``normalize``, else 1."""
        return float(self.n) if self.config["normalize"] else 1.0

    def to_json(self) -> str:
        """The report as compact, strict JSON.

        Keys follow the field order; fields that are None are left out. The
        vertex, hull-point and dominance rows are written from the columns,
        each float as ``repr`` writes it, as ``json`` does; a non-finite value
        raises the ``ValueError`` of ``json.dumps(..., allow_nan=False)``.

        Each text is made once. A hull row naming a curve vertex whose written
        coordinates it shares bit for bit takes that vertex's texts, the
        dominance rows take their hull rows' texts, and the int columns read
        one list of the texts of 0, 1, 2, ...
        """
        return _object(self._json_fields(), end="}\n")

    def _json_fields(self):
        """(key, JSON text) of each field; the shared texts are freed once the last is made."""
        scale = self.axis_scale
        curves = [entry["curve"] for entry in self.models.values() if "curve" in entry]
        hull = self.hull if self.hull is not None else getattr(self.dominance, "hull", None)
        hull_texts = None if hull is None else _HullTexts(hull, scale)
        # A vertex's counts are below its curve's n; a hull row names its vertex by index.
        tops = [c.n - 1 for c in curves] + ([] if self.hull is None else [self.hull.vertex_index.max(initial=0)])
        ints = _int_texts(int(max(tops, default=0)))
        for key, value in vars(self).items():
            if value is None:
                continue
            if key == "models":
                text = _object((m, _entry_json(m, entry, scale, self.config["normalize"], ints, hull_texts))
                               for m, entry in value.items())
            elif key == "hull":
                level = "curves" if "curves" in self.config["outputs"] else "points"
                text = _hull_json(value, hull_texts.columns, ints, level)
            elif key == "dominance":
                # The dominance points are hull rows: their texts are reused.
                texts = hull_texts if value.hull is hull else _HullTexts(value.hull, scale)
                text = _dominance_json(value, texts.columns)
            else:
                text = _dumps(value)
            yield key, text


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _object(items, end: str = "}") -> str:
    """A JSON object from (key, JSON text) pairs, in order.

    One join copies each text once: the report's texts run to megabytes.
    """
    pieces = []
    for key, text in items:
        pieces += (",", _dumps(key), ":", text)
    pieces[:1] = ["{"]  # the first comma, or nothing in an empty object
    pieces.append(end)
    return "".join(pieces)


def _texts(column) -> List[str]:
    """Each value of a float column as ``json`` writes it.

    A non-finite float is handed to ``json.dumps``, which raises its own
    ``ValueError`` for it.
    """
    finite = np.isfinite(column)
    if not finite.all():
        _dumps(float(column[~finite][0]))
    return list(map(repr, column.tolist()))


def _int_texts(top: int) -> np.ndarray:
    """The texts of 0 up to ``top``, to gather from."""
    return np.array(list(map(str, range(top + 1))), dtype=object)


def _entry_json(model_id: str, entry: dict, scale: float, normalized: bool, ints, hull_texts) -> str:
    return _object((k, _curve_json(model_id, v, scale, normalized, ints, hull_texts) if k == "curve"
                    else _dumps(v)) for k, v in entry.items())


def _curve_json(model_id: str, curve: RrocCurve, scale: float, normalized: bool, ints, hull_texts) -> str:
    """A curve's JSON with its coordinates divided by scale.

    The distinct vertices are counted on the raw curve, as the hull indexes
    them. The coordinate texts are handed to the hull rows that name them.
    Each vertex counts the examples with a smaller and a larger shift.
    """
    distinct = curve.distinct_vertices().size
    over, under = _texts(curve.over / scale), _texts(curve.under / scale)
    if hull_texts is not None:
        hull_texts.take(model_id, curve, over, under)
    shift = curve.shift
    n_over = ints[np.searchsorted(shift, shift, "left")].tolist()
    n_under = ints[curve.n - np.searchsorted(shift, shift, "right")].tolist()
    rows = ",".join([
        f'{{"over":{o},"under":{u},"shift":{s},"n_over":{a},"n_under":{b}}}'
        for o, u, s, a, b in zip(over, under, _texts(shift), n_over, n_under)
    ])
    return f'{{"normalized":{_dumps(normalized)},"distinct_vertex_count":{distinct},"vertices":[{rows}]}}'


class _HullTexts:
    """The (over, under, model) texts of each hull row, coordinates divided by scale.

    ``take`` hands over the texts a curve's rows were written with: a row
    naming a vertex of that curve takes the vertex's texts, gathered at once,
    when its divided coordinates equal the vertex's bit for bit (so -0.0 and
    0.0 differ). ``columns`` writes the other rows from the hull's own columns.
    """

    def __init__(self, hull: ConvexHull, scale: float):
        self.hull = hull
        self.scale = scale
        self.over = np.empty(hull.over.size, dtype=object)
        self.under = np.empty(hull.over.size, dtype=object)
        self.taken = np.zeros(hull.over.size, dtype=bool)

    def take(self, model_id: str, curve: RrocCurve, over: List[str], under: List[str]) -> None:
        h, scale = self.hull, self.scale
        if model_id not in h.model_ids:
            return
        rows = np.flatnonzero((h.model_rank == h.model_ids.index(model_id)) & (h.vertex_index >= 0))
        distinct = curve.distinct_vertices()
        rows = rows[h.vertex_index[rows] < distinct.size]
        vertex = distinct[h.vertex_index[rows]]
        same = ((_bits(h.over[rows] / scale) == _bits(curve.over[vertex] / scale))
                & (_bits(h.under[rows] / scale) == _bits(curve.under[vertex] / scale)))
        rows, vertex = rows[same], vertex[same]
        if rows.size:
            self.over[rows] = np.array(over, dtype=object)[vertex]
            self.under[rows] = np.array(under, dtype=object)[vertex]
            self.taken[rows] = True

    @cached_property
    def columns(self) -> Tuple[List[str], List[str], List[str]]:
        h, own = self.hull, ~self.taken
        self.over[own] = _texts(h.over[own] / self.scale)
        self.under[own] = _texts(h.under[own] / self.scale)
        ids = np.array([_dumps(m) for m in h.model_ids], dtype=object)
        return self.over.tolist(), self.under.tolist(), ids[h.model_rank].tolist()


def _bits(values) -> np.ndarray:
    """The float64 values as their bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _hull_json(hull: ConvexHull, texts, ints, level: str) -> str:
    index = ints[np.maximum(hull.vertex_index, 0)]
    index[hull.vertex_index < 0] = "null"
    rows = ",".join([
        f'{{"over":{o},"under":{u},"model":{m},"vertex_index":{k}}}'
        for o, u, m, k in zip(*texts, index.tolist())
    ])
    return f'{{"level":{_dumps(level)},"points":[{rows}]}}'


def _dominance_json(dm: DominanceMap, texts) -> str:
    over, under, model = texts
    # Each region starts where the one before ends: its low is the previous high, 0.0 first.
    highs = _texts(dm.alpha_high)
    rows = ",".join([
        f'{{"alpha_low":{a},"alpha_high":{b},"model":{model[r]},"point":{{"over":{over[r]},"under":{under[r]}}}}}'
        for a, b, r in zip(["0.0", *highs[:-1]], highs, dm.hull_row.tolist())
    ])
    return f"[{rows}]"


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
    e = as_errors(errors)
    n = e.size
    # The spread, the grid or the density itself can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
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
        density = sums / (n * h * np.sqrt(2 * np.pi))
    return _finite((xs, density), "the error density overflows")


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


def _analyze_model(
    model_id: str, e: np.ndarray, config: RunConfig
) -> Tuple[dict, RrocPoint, RrocCurve]:
    """The report entry of one model, with its point and curve."""
    wants = set(config.outputs)
    summary = asdict(metrics(e))
    point = over_under(e)
    curve = rroc_curve(e, model_id=model_id)
    area = aoc(curve)
    scale = float(e.size) if config.normalize else 1.0
    entry: dict = {
        "metrics": summary,
        "aoc": area,
        "normalized_aoc": area / curve.n**2,
    }
    if "points" in wants:
        entry["point"] = {"over": point.over / scale, "under": point.under / scale}
    if "curves" in wants:
        entry["curve"] = curve
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
        xs, density = error_density(e)
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
        try:
            models[m], points[m], curves[m] = _analyze_model(m, dataset.errors(m), config)
        except DataError as exc:
            raise DataError(f"model {m!r}: {exc}") from None

    wants = set(config.outputs)
    hull = dominance = None
    if "hull" in wants or "dominance" in wants:
        built = convex_hull(curves if "curves" in wants else points)
        if "hull" in wants:
            hull = built
        if "dominance" in wants:
            dominance = dominance_map(built)

    alpha_queries = None
    if config.alphas:
        alpha_queries = []
        for a in config.alphas:
            losses = {m: total_loss(points[m], a) for m in model_ids}
            # Lower loss wins, then lower OVER, then lower |UNDER|, then the smaller id.
            best_id = min(model_ids, key=lambda m: (losses[m], points[m].over, -points[m].under, m))
            iso = isometric_through(points[best_id], a)
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
        hull=hull,
        dominance=dominance,
        alpha_queries=alpha_queries,
        generated_at=None if config.reproducible else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
