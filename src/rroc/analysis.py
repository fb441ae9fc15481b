"""Isometrics, operating-point selection, hybrids, convex hulls and dominance.

The RROC plane is read from its heaven (0, 0) in the upper left: a point is
better the further up (less under-estimation) and left (less over-estimation)
it sits. Isometrics are the lines of constant total asymmetric loss; sliding
the isometric of slope (1-alpha)/alpha away from heaven, the first point
touched is the optimum for that alpha. The set of points that are first-touched
for some alpha forms the upper-left convex frontier, to which the symbolic
extreme models at (0, -inf) and (inf, 0) contribute a vertical and a
horizontal ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    OVER_EXTREME,
    UNDER_EXTREME,
    ConditionLike,
    RrocPoint,
    _alpha_of,
    _total_losses,
    total_loss,
)
from .curve import RrocCurve, _optimal_vertices
from .errors import DataError

__all__ = [
    "Isometric",
    "HybridSegment",
    "HullPoint",
    "ConvexHull",
    "DominanceRegion",
    "DominanceMap",
    "isometric_through",
    "best_point_for_alpha",
    "best_vertex_for_alpha",
    "hybrid_segment",
    "convex_hull",
    "dominance_map",
]

# Relative epsilon for classifying three hull candidates as collinear.
COLLINEAR_EPS = 1e-12


@dataclass(frozen=True)
class Isometric:
    """A constant-loss line: -2a*UNDER + 2(1-a)*OVER = level.

    ``intercept`` is the UNDER-axis intercept. The line is vertical, with
    slope inf and intercept None, at alpha = 0, where it is OVER = level / 2,
    and at any alpha so small that the slope or the intercept is not a finite
    float.
    """

    alpha: float
    slope: float
    intercept: Optional[float]
    level: float


def isometric_through(point: RrocPoint, oc: ConditionLike) -> Isometric:
    """The isometric line through ``point`` for asymmetry alpha."""
    a = _alpha_of(oc)
    level = total_loss(point, a)
    if a > 0.0:
        slope = (1.0 - a) / a
        intercept = point.under - slope * point.over
        if math.isfinite(slope) and math.isfinite(intercept):
            return Isometric(alpha=a, slope=slope, intercept=intercept, level=level)
    return Isometric(alpha=a, slope=math.inf, intercept=None, level=level)


def best_point_for_alpha(
    points: Sequence[RrocPoint], oc: ConditionLike
) -> Tuple[RrocPoint, float]:
    """The point of minimum total loss at asymmetry alpha, with its loss.

    Exact loss ties go to lower over, then lower |under|, then the first.
    """
    if not points:
        raise DataError("need at least one point")
    over = np.array([p.over for p in points])
    under = np.array([p.under for p in points])
    loss = _total_losses(over, under, _alpha_of(oc))
    best = int(np.lexsort((np.abs(under), over, loss))[0])
    return points[best], float(loss[best])


def best_vertex_for_alpha(curve: RrocCurve, oc: ConditionLike) -> Tuple[int, float]:
    """Interior index and total loss of the curve vertex optimal at alpha.

    The curve must be the sweep of an error vector, as ``rroc_curve`` builds
    it: the optimum is then the vertex whose two adjacent segment slopes
    bracket (1-alpha)/alpha, read off the slope ladder without a scan. At
    alpha = 0 that is the first vertex (OVER = 0), at alpha = 1 the last
    (UNDER = 0). Ties follow ``optimal_constant_shift``: the smallest |shift|,
    then the positive one. For arbitrary points use ``best_point_for_alpha``.
    """
    index, loss = _optimal_vertices(curve, [_alpha_of(oc)])
    return int(index[0]), float(loss[0])


@dataclass(frozen=True)
class HybridSegment:
    """The segment of models mixable from two endpoint models.

    Choosing each prediction from endpoint a with probability p and from b
    otherwise realises (in expectation) every point of the segment. At
    ``crossover_alpha = 1 / (1 + slope)`` both endpoints have equal total
    loss; ``crossover_loss`` is the shared level in its un-doubled form
    ``alpha * |UNDER| + (1 - alpha) * OVER`` (half the total loss - the
    constant factor 2 cancels when comparing models).
    """

    endpoint_a: RrocPoint
    endpoint_b: RrocPoint
    slope: float
    crossover_alpha: float
    crossover_loss: float

    @property
    def is_vertical(self) -> bool:
        return math.isinf(self.slope)


def hybrid_segment(a: RrocPoint, b: RrocPoint) -> HybridSegment:
    """Segment between two distinct finite points with its crossover condition."""
    if not (a.is_finite and b.is_finite):
        raise DataError("hybrid endpoints must be finite points")
    if a.over == b.over and a.under == b.under:
        raise DataError("hybrid endpoints must be distinct")
    if a.over == b.over:
        # Vertical segment: only alpha = 0 weighs the two equally (both free).
        slope = math.inf
        alpha = 0.0
    else:
        slope = (b.under - a.under) / (b.over - a.over)
        alpha = 1.0 / (1.0 + slope)
    loss = alpha * -a.under + (1.0 - alpha) * a.over
    return HybridSegment(endpoint_a=a, endpoint_b=b, slope=slope, crossover_alpha=alpha, crossover_loss=loss)


@dataclass(frozen=True)
class HullPoint:
    """A hull vertex with its provenance.

    ``model_id`` is None for the two symbolic extremes. For points taken from
    a curve, ``vertex_index`` indexes that curve's ``distinct_vertices()``.
    """

    point: RrocPoint
    model_id: Optional[str]
    vertex_index: Optional[int]


def _read_only(column) -> np.ndarray:
    column = np.asarray(column)
    column.flags.writeable = False
    return column


class ConvexHull:
    """Upper-left convex frontier, ordered by increasing OVER.

    The finite frontier points are stored as read-only columns: ``over``,
    ``under``, ``model_rank`` (an index into the sorted ``model_ids``) and
    ``vertex_index`` (an index into the curve's ``distinct_vertices()``, -1
    for point inputs). They are exactly the candidates that are loss-optimal
    for some alpha (collinear frontier points are kept: they are optimal for
    the same alpha but are distinct achievable operating points). Every input
    point not on the hull is suboptimal for every alpha.

    ``points`` adds the (0, -inf) and (inf, 0) extremes at either end. It and
    ``finite_points`` are tuples of ``HullPoint``, built once on first access.
    """

    def __init__(self, over, under, model_rank, vertex_index, model_ids):
        self.over = _read_only(over)
        self.under = _read_only(under)
        self.model_rank = _read_only(model_rank)
        self.vertex_index = _read_only(vertex_index)
        self.model_ids = tuple(model_ids)

    @cached_property
    def finite_points(self) -> tuple:
        return tuple(
            HullPoint(RrocPoint(o, u), self.model_ids[r], None if k < 0 else k)
            for o, u, r, k in zip(self.over.tolist(), self.under.tolist(),
                                  self.model_rank.tolist(), self.vertex_index.tolist())
        )

    @cached_property
    def points(self) -> tuple:
        return (HullPoint(UNDER_EXTREME, None, None), *self.finite_points,
                HullPoint(OVER_EXTREME, None, None))


HullInput = Union[RrocPoint, RrocCurve]


def _candidates(inputs: Dict[str, HullInput]):
    """Every hull candidate as (model ids, over, under, model rank, vertex index).

    Ranks index the sorted model ids. Vertex indices count a curve's distinct
    interior vertices; they are -1 for point inputs.
    """
    model_ids = sorted(inputs)
    overs, unders, ranks, indices = [], [], [], []
    for rank, model_id in enumerate(model_ids):
        item = inputs[model_id]
        if isinstance(item, RrocPoint):
            if not item.is_finite:
                raise DataError(f"input point for {model_id!r} must be finite")
            ov, un, index = np.array([item.over]), np.array([item.under]), np.array([-1])
        elif isinstance(item, RrocCurve):
            keep = item.distinct_vertices()
            ov, un = item.over[keep], item.under[keep]
            index = np.arange(ov.size)
        else:
            raise DataError(f"unsupported hull input for {model_id!r}: {type(item).__name__}")
        overs.append(ov)
        unders.append(un)
        ranks.append(np.full(ov.size, rank))
        indices.append(index)
    return (model_ids, np.concatenate(overs), np.concatenate(unders),
            np.concatenate(ranks), np.concatenate(indices))


def convex_hull(inputs: Dict[str, HullInput]) -> ConvexHull:
    """Convex hull of a set of RROC points and/or curves, extremes included.

    Weakly dominated candidates (another point with <= over and >= under) are
    dropped first: they are never loss-optimal, and pruning them keeps the
    hull scan free of degenerate vertical/horizontal runs. Candidates sorted
    by (over, -under, model id) survive when their under beats every earlier
    one. A monotone-chain scan over the survivors then removes a point already
    on the chain when it falls strictly below the chord to the incoming point
    (relative epsilon ``COLLINEAR_EPS``), so exactly-collinear frontier points
    survive. The scan skips its convex runs: the pop test runs on every
    consecutive triple at once, and the loop visits only the turns, where a
    point pops, and the points that follow one. The symbolic extremes are
    implied as the half-infinite rays.
    """
    if not inputs:
        raise DataError("need at least one point or curve")
    model_ids, ov, un, rank, index = _candidates(inputs)
    order = np.lexsort((rank, -un, ov))
    un_sorted = un[order]
    best_before = np.maximum.accumulate(np.concatenate(([-math.inf], un_sorted[:-1])))
    survivors = order[un_sorted > best_before]
    picked = survivors[_chain(ov[survivors], un[survivors])]
    return ConvexHull(ov[picked], un[picked], rank[picked], index[picked], model_ids)


def _chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the monotone chain through points sorted by increasing x.

    The chain pops its last point when it falls strictly below the chord from
    the point before it to the incoming one. That test is first evaluated on
    every consecutive triple at once, with the same operands as in the loop:
    a triple that pops is a turn. While the chain ends in the two points
    before the incoming one, every point up to the next turn is pushed
    without a test, so the loop runs only at turns, through their pops, and
    at the points after them until the chain is back on consecutive points.
    """
    m = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
        t2 = (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
        pops = (t1 - t2) > COLLINEAR_EPS * np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-300)
    turns = (np.flatnonzero(pops) + 2).tolist()
    if not turns:  # one convex run: nothing pops
        return np.arange(m)
    xs, ys = x.tolist(), y.tolist()
    chain: List[int] = []

    def push(j: int) -> None:
        bx, by = xs[j], ys[j]
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            # Strictly counterclockwise o->a->b means a lies below the chord o-b.
            t1 = (xs[a] - xs[o]) * (by - ys[o])
            t2 = (ys[a] - ys[o]) * (bx - xs[o])
            if not (t1 - t2) > COLLINEAR_EPS * max(abs(t1), abs(t2), 1e-300):
                break
            chain.pop()
        chain.append(j)

    j = 0
    for turn in [*turns, m]:
        while j < turn and chain[-2:] != [j - 2, j - 1]:
            push(j)
            j += 1
        chain.extend(range(j, turn))
        j = turn
        if j < m:
            push(j)
            j += 1
    return np.array(chain)


@dataclass(frozen=True)
class DominanceRegion:
    """One alpha interval and the hull point optimal on it.

    The first region covers [alpha_low, alpha_high], every later one
    (alpha_low, alpha_high]: exact boundary alphas belong to the lower-alpha
    region.
    """

    alpha_low: float
    alpha_high: float
    model_id: Optional[str]
    point: RrocPoint


class DominanceMap:
    """Partition of alpha in [0, 1] into dominance regions.

    Stored as read-only columns ``alpha_high`` and ``hull_row``, the row of
    ``hull`` optimal on each region; each region starts where the one before
    ends, so ``alpha_low`` is derived. ``regions`` is the tuple of
    ``DominanceRegion``, built once on first access.
    """

    def __init__(self, alpha_high, hull_row, hull: ConvexHull):
        self.alpha_high = _read_only(alpha_high)
        self.hull_row = _read_only(hull_row)
        self.hull = hull

    @cached_property
    def alpha_low(self) -> np.ndarray:
        return _read_only(np.concatenate(([0.0], self.alpha_high[:-1])))

    @cached_property
    def regions(self) -> tuple:
        h = self.hull
        rows = self.hull_row
        return tuple(
            DominanceRegion(low, high, h.model_ids[r], RrocPoint(o, u))
            for low, high, r, o, u in zip(self.alpha_low.tolist(), self.alpha_high.tolist(),
                                          h.model_rank[rows].tolist(), h.over[rows].tolist(),
                                          h.under[rows].tolist())
        )

    def model_at(self, alpha: float) -> DominanceRegion:
        # Region highs strictly increase to 1 and each region owns its high
        # end, so the covering region is the first whose high is >= alpha.
        return self.regions[int(np.searchsorted(self.alpha_high, _alpha_of(alpha), "left"))]


def dominance_map(inputs: Union[ConvexHull, Dict[str, HullInput]]) -> DominanceMap:
    """Label each alpha interval with the hull point (and model) optimal there.

    ``inputs`` is a hull already built by ``convex_hull``, or the points
    and/or curves to build it from. Interval boundaries are the crossover
    alphas 1/(1+slope) of consecutive hull segments (see ``hybrid_segment``):
    segment slopes decrease along the hull, so their alphas increase.
    Collinear hull points produce empty intervals, which are dropped (they are
    optimal only at the single shared alpha, where the tie-break prefers the
    lower-OVER point): the first interval is always kept, and a later one when
    its high is above every earlier high.
    """
    hull = inputs if isinstance(inputs, ConvexHull) else convex_hull(inputs)
    ov, un = hull.over, hull.under
    # Hull overs strictly increase, so no segment is vertical. A slope too
    # steep for a float is inf, whose crossover 1/(1+inf) is 0.0.
    with np.errstate(over="ignore"):
        crossovers = 1.0 / (1.0 + np.diff(un) / np.diff(ov))
    kept = np.ones(crossovers.size, dtype=bool)
    kept[1:] = crossovers[1:] > np.maximum.accumulate(crossovers)[:-1]
    rows = np.flatnonzero(kept)
    highs = crossovers[rows]
    if not rows.size or highs[-1] < 1.0:
        rows = np.append(rows, ov.size - 1)
        highs = np.append(highs, 1.0)
    return DominanceMap(highs, rows, hull)
