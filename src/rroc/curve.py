"""RROC curve construction by constant-shift sweep, segment geometry and AOC.

A curve is the locus of (OVER, UNDER) points of the shifted model ``m<s>``
(every prediction moved by the same constant ``s``) as ``s`` sweeps the whole
real line. It is piecewise linear with ``n + 2`` vertices: the symbolic
extremes (0, -inf) and (inf, 0) plus one interior vertex per example, reached
by the shift that moves that example exactly onto the boundary between
over- and under-estimation.

Boundary convention: at a vertex shift one shifted error is exactly zero. The
vertex coordinates follow the sweep construction: the zero term is summed into
UNDER, where it adds nothing.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Tuple

import numpy as np

from .core import _alphas, _finite, _floats, _total_losses, as_errors
from .errors import DataError, _shown

__all__ = [
    "RrocCurve",
    "rroc_curve",
    "over_under_at",
    "segment_slopes",
    "segment_alpha",
    "aoc",
    "default_shift_grid",
    "aoc_brute_force",
    "normalized_curve",
    "is_convex",
]

# Relative slack allowed between consecutive slopes by ``is_convex``.
CONVEX_REL_TOL = 1e-9


class RrocCurve:
    """Ordered vertices of a shift-swept model.

    The interior vertices are the columns ``over``, ``under`` and ``shift`` in
    sweep order, converted as every caller array is (float64 arrays are not
    copied) and made read-only; the extremes (0, -inf) and (inf, 0) are
    implied; ``n`` is the vertex count. The constructor is the one place a
    curve is checked: as along any sweep, every column is finite and never
    decreases, over starts at 0 or above and under ends at 0 or below.
    """

    __slots__ = ("over", "under", "shift", "n", "model_id", "normalized", "_distinct")

    def __init__(self, over, under, shift, *, model_id: Optional[str] = None, normalized: bool = False):
        over, under, shift = columns = [_floats(c, f"curve of {model_id!r}") for c in (over, under, shift)]
        if any(c.ndim != 1 or c.size != over.size for c in columns):
            raise DataError("curve columns must be 1-D and of one length")
        if not (over.size and all((c[1:] >= c[:-1]).all() for c in columns) and over[0] >= 0.0 and under[-1] <= 0.0):
            raise DataError(f"curve of {model_id!r} needs a vertex and nondecreasing columns "
                            f"with over >= 0 and under <= 0")
        for name, column in zip(("over", "under", "shift"), columns):
            column.flags.writeable = False
            setattr(self, name, column)
        self.n = over.size
        self.model_id = model_id
        self.normalized = normalized
        self._distinct = None

    @property
    def vertices(self) -> np.ndarray:
        """Read-only (n + 2, 2) array of (over, under), both extremes included."""
        out = np.column_stack((np.concatenate(([0.0], self.over, [math.inf])),
                               np.concatenate(([-math.inf], self.under, [0.0]))))
        out.flags.writeable = False
        return out

    def distinct_vertices(self) -> np.ndarray:
        """Interior indices of the vertices left when coincident runs collapse.

        Ties in the error vector make consecutive vertices coincide; this is
        the deduplicated view that the hull, the report's count and the plot
        all read (see ``_distinct_rule``). The rule runs once per curve, on
        the raw coordinates, and its read-only mask is kept; a scaled copy of
        the columns selects these same indices.
        """
        return np.flatnonzero(self._distinct_mask())

    def _distinct_mask(self) -> np.ndarray:
        """The read-only mask behind ``distinct_vertices``, derived on first call."""
        mask = self._distinct
        if mask is None:
            # Threads that race here compute equal masks; either one is kept.
            mask = _distinct_rule(self.over, self.under)
            mask.flags.writeable = False
            self._distinct = mask
        return mask


def _distinct_rule(over: np.ndarray, under: np.ndarray) -> np.ndarray:
    """Mask of the vertices kept when coincident runs of a curve collapse.

    Two vertices coincide when both coordinates differ by at most 1e-12 of
    the curve's coordinate scale, ``max(over[-1], -under[0])``, so ties
    survive the float noise of computing errors by subtraction. The first
    vertex of each run is kept, and each vertex is compared with the last
    kept vertex, not with its neighbour. Both columns never decrease, so the
    vertices within tol of the last kept one are a run, skipped whole.
    """
    keep = np.ones(over.size, dtype=bool)
    if over.size < 2:
        return keep
    tol = 1e-12 * max(over.item(-1), -under.item(0))
    d_over, d_under = np.diff(over), np.diff(under)
    # A vertex equal to its neighbour is never kept: the neighbour is the last
    # kept vertex or within tol of it. A vertex more than tol from its
    # neighbour is more than tol from every earlier vertex, so it is kept. Only
    # the rest needs the last kept vertex.
    equal = (d_over == 0.0) & (d_under == 0.0)
    keep[1:] = ~equal
    pending = np.flatnonzero(~equal & (d_over <= tol) & (d_under <= tol)) + 1
    if not pending.size:
        return keep
    keep[pending] = False
    last_settled = np.maximum.accumulate(np.where(keep, np.arange(over.size), 0))
    # The vertices within tol of the last kept one k form a run after it: the
    # next kept vertex is the first one past tol in either coordinate.
    last = -1
    p = 0
    while p < pending.size:
        k = max(last, int(last_settled[pending[p] - 1]))
        last = min(_first_past(over, k, tol), _first_past(under, k, tol))
        if last == over.size:
            break
        keep[last] = True
        p = int(np.searchsorted(pending, last, "right"))
    return keep


def _first_past(column: np.ndarray, k: int, tol: float) -> int:
    """The first index i > k with ``column[i] - column[k] > tol`` in a nondecreasing column.

    ``searchsorted`` finds it up to the rounding of ``column[k] + tol``; since
    ``column[i] - column[k]`` never decreases with ``column[i]``, stepping over
    whole runs of equal values settles the exact boundary. The column's size
    means there is none.
    """
    base = column.item(k)
    i = int(np.searchsorted(column, base + tol, "right"))
    while i > k + 1 and not column.item(i - 1) - base <= tol:
        i = int(np.searchsorted(column, column[i - 1], "left"))
    while i < column.size and column.item(i) - base <= tol:
        i = int(np.searchsorted(column, column[i], "right"))
    return i


def rroc_curve(errors, model_id: Optional[str] = None) -> RrocCurve:
    """Build the RROC curve of an error vector.

    The errors are sorted decreasingly and each error in turn is moved onto
    the over/under boundary. Interior coordinates are accumulated from the
    sorted adjacent differences, which keeps every coordinate a sum of
    nonnegative terms:

        over_{k+1}  = over_k + (k+1) * d_k
        under_k     = under_{k+1} - (n-k-1) * d_k,   d_k = e_(k) - e_(k+1)

    This is algebraically identical to summing the shifted errors directly
    and avoids cancellation for nearly tied errors.
    """
    e = as_errors(errors)
    n = e.size
    es = np.sort(e)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        d = es[:-1] - es[1:]
        d += 0.0  # a tie of -0.0 and 0.0 gives d = -0.0; every zero coordinate is +0.0
        overs = np.concatenate(([0.0], np.cumsum(np.arange(1, n) * d)))
        w = np.arange(n - 1, 0, -1) * d
        unders = 0.0 - np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
    return RrocCurve(overs, unders, 0.0 - es, model_id=model_id)  # an error of 0.0 has the shift +0.0


def over_under_at(curve: RrocCurve, shifts) -> Tuple[np.ndarray, np.ndarray]:
    """OVER and UNDER of the shifted models ``m<s>``, read off the curve.

    Between consecutive vertex shifts the same examples stay over- and
    under-estimated, so both sums are linear in the shift there. With ``j``
    the number of vertex shifts at most ``s`` and ``k = max(j - 1, 0)``:

        OVER  = over_k  + j * (s - s_k)
        UNDER = under_k + (n - j) * (s - s_k)

    so below the first vertex (j = 0) OVER is 0 and UNDER = under_0 + n * (s - s_0).
    At a vertex shift the result is that vertex's coordinates exactly; a
    normalized curve gives the sums divided by n. The curve must be the sweep
    of an error vector, as ``rroc_curve`` builds it. Returns two float arrays
    of the shape of ``shifts``; a non-finite shift or sum is a DataError.
    """
    s = _floats(shifts, "shifts")
    # m<s> over-estimates (or hits) the j examples whose vertex shift is at most s.
    j = np.searchsorted(curve.shift, s, "right")
    k = np.maximum(j - 1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        ds = s - curve.shift[k]
        if curve.normalized:
            ds = ds / curve.n
        over = curve.over[k] + j * ds
        under = curve.under[k] + (curve.n - j) * ds
    return _finite((over, under), "OVER or UNDER of a shifted model overflows")


def _optimal_vertices(curve: RrocCurve, alphas) -> Tuple[np.ndarray, np.ndarray]:
    """Index and total loss of the optimal interior vertex of ``curve``, per alpha.

    Vertex i (0-based) is optimal when i <= alpha*n <= i+1: the next segment
    changes the loss by 2*d_i*(i + 1 - alpha*n), d_i >= 0. Rounding can put
    floor(alpha*n) one short and on a tie both vertices are optimal, so the
    floor and its two neighbours are compared. Exact ties go to the smallest
    |shift|, then (stable sort, window right to left) to the larger shift.
    The curve must be the sweep of an error vector, as ``rroc_curve`` builds it.
    """
    a = _alphas(alphas)[:, None]
    window = np.clip(np.floor(a * curve.n).astype(np.intp) + [1, 0, -1], 0, curve.over.size - 1)
    loss = _total_losses(curve.over[window], curve.under[window], a)
    best = np.lexsort((np.abs(curve.shift[window]), loss), axis=-1)[:, :1]
    return np.take_along_axis(window, best, -1)[:, 0], np.take_along_axis(loss, best, -1)[:, 0]


def _integer(value, name: str) -> int:
    """``value`` as an int; Python and numpy integers pass, anything else is a DataError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None


def segment_slopes(n: int) -> np.ndarray:
    """Slopes of the n+1 curve segments: (n+1-i)/(i-1) for i = 1..n+1.

    Element i-1 is the slope of segment i: inf, (n-1)/1, ..., 0/n. They
    depend only on n, not on the error values; curves of equal-sized
    datasets differ in segment lengths, never in slopes.
    """
    n = _integer(n, "n")
    if n < 1:
        raise DataError(f"n must be >= 1, got {_shown(n)}")
    return np.concatenate(([math.inf], np.arange(n - 1, -1, -1) / np.arange(1, n + 1)))


def segment_alpha(n: int, i: int) -> float:
    """Operating condition alpha = (i-1)/n for which segment i hosts the optimum."""
    n, i = _integer(n, "n"), _integer(i, "segment index")
    if n < 1:
        raise DataError(f"n must be >= 1, got {_shown(n)}")
    if not 1 <= i <= n + 1:
        raise DataError(f"segment index must be in 1..{_shown(n + 1)}, got {_shown(i)}")
    return (i - 1) / n


def aoc(curve: RrocCurve) -> float:
    """Area over the RROC curve (trapezoid sum over the interior vertices).

    The extreme trapezoids contribute nothing for finite models, so the sum
    runs over consecutive interior vertex pairs. Equals
    ``population_variance(e) * n**2 / 2`` for the curve of ``e``.
    """
    ov, un = curve.over, curve.under
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(np.sum(-(un[1:] + un[:-1]) / 2.0 * (ov[1:] - ov[:-1]))))


def default_shift_grid(errors) -> np.ndarray:
    """Default sweep grid for the brute-force AOC oracle.

    10*n^2 evenly spaced shifts across the shift range (-max e to -min e)
    padded by one range-width on each side, plus the exact boundary shifts
    -e_i so the sweep lands on every vertex.
    """
    e = as_errors(errors)
    n = e.size
    lo, hi = float(-e.max()), float(-e.min())
    span = max(hi - lo, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        even = _finite(np.linspace(lo - span, hi + span, 10 * n * n), "the shift grid overflows")
    return np.unique(np.concatenate((even, -e)))


def aoc_brute_force(errors, grid=None) -> float:
    """AOC by sweeping shifts pointwise and integrating -UNDER d(OVER).

    Independent of the vertex construction: each grid shift recomputes OVER
    and UNDER from scratch and the area comes from trapezoid quadrature over
    consecutive grid points. Converges to ``aoc(rroc_curve(errors))`` as the
    grid refines.
    """
    e = as_errors(errors)
    if grid is None:
        grid = default_shift_grid(e)
    g = _floats(grid, "shift grid")
    if g.ndim != 1 or g.size < 2:
        raise DataError("shift grid must be a 1-D sequence of at least 2 shifts")
    if np.any(np.diff(g) <= 0):
        raise DataError("shift grid must be strictly increasing")

    with np.errstate(over="ignore", invalid="ignore"):
        t = e[None, :] + g[:, None]
        over = np.where(t > 0, t, 0.0).sum(axis=1)
        under = np.where(t < 0, t, 0.0).sum(axis=1)
        return _finite(float(np.sum(-(under[1:] + under[:-1]) / 2.0 * (over[1:] - over[:-1]))))


def normalized_curve(curve: RrocCurve) -> RrocCurve:
    """Divide both coordinates of every vertex by n.

    Makes curves of different dataset sizes comparable; the normalized AOC is
    ``variance / 2``. Shifts stay untouched, and so do the distinct vertices:
    the copy takes the source's mask.
    """
    n = curve.n
    out = RrocCurve(curve.over / n, curve.under / n, curve.shift, model_id=curve.model_id, normalized=True)
    out._distinct = curve._distinct_mask()
    return out


def is_convex(curve: RrocCurve) -> bool:
    """True iff the finite-segment slopes are nonincreasing left to right.

    Curves produced by ``rroc_curve`` are always convex (their slopes follow
    the fixed (n+1-i)/(i-1) ladder); this check exists for hand-built
    curves. Coincident vertices are skipped; slope comparisons allow a
    relative tolerance of ``CONVEX_REL_TOL`` for float noise.
    """
    keep = curve.distinct_vertices()
    dx, dy = np.diff(curve.over[keep]), np.diff(curve.under[keep])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slopes = np.where(dx == 0.0, math.inf, dy / dx)
    prev, cur = slopes[:-1], slopes[1:]
    bound = prev + CONVEX_REL_TOL * np.maximum(np.maximum(np.abs(prev), np.abs(cur)), 1.0)
    return not np.any(cur > bound)
