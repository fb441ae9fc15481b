"""Shift-choice (reframing) methods and cost curves over operating conditions.

A shift is the regression counterpart of a classification threshold: a
constant added to every prediction to adapt an existing model to a new cost
asymmetry. A shift-choice method maps (RROC curve, alphas) to shifts;
evaluating a model therefore always means evaluating a (model, method) pair.

The total asymmetric loss is piecewise linear in the shift, so its minimum is
attained at one of the candidate shifts ``-e_i`` (the negated alpha-quantile
of the errors, up to plateau choice): an RROC curve vertex. The curve's segment
slopes are fixed by n, so the optimal vertex is found by index, not by search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ConditionLike, RrocPoint, _alpha_of, _total_losses, as_errors, over_under, total_loss
from .curve import RrocCurve, _optimal_vertices, over_under_at, rroc_curve
from .errors import DataError

__all__ = [
    "ShiftMethod",
    "NoShift",
    "OptimalConstantShift",
    "TrainedConstantShift",
    "CostCurve",
    "apply_shift",
    "zero_bias_shift",
    "optimal_constant_shift",
    "trained_constant_shift",
    "cost_curve",
    "default_alpha_grid",
]


def apply_shift(predictions, s: float) -> np.ndarray:
    """The shifted model m<s>: every prediction moved by the constant s.

    ``s`` is any finite real number, numpy scalars included.
    """
    try:
        shift = float(s) if isinstance(s, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        shift = math.inf
    if not math.isfinite(shift):
        raise DataError(f"shift must be finite, got {s!r}")
    return np.asarray(predictions, dtype=float) + shift


def zero_bias_shift(errors) -> float:
    """The shift -mean(e) that zeroes the error bias of the shifted model.

    This is the squared-error optimum, kept as a convenience; it is not the
    minimizer of the asymmetric absolute loss (see optimal_constant_shift).
    """
    return float(-np.mean(as_errors(errors)))


def optimal_constant_shift(errors, oc: ConditionLike) -> Tuple[float, float]:
    """The constant shift minimizing the total asymmetric loss, with its loss.

    The optimum is the RROC curve vertex whose neighbouring segment slopes
    bracket the isometric slope; on exact loss ties (plateaus) the shift with
    smallest magnitude wins. The loss is the total loss of that vertex.
    """
    curve = rroc_curve(errors)
    i, loss = _optimal_vertices(curve, [_alpha_of(oc)])
    return float(curve.shift[i[0]]), float(loss[0])


def trained_constant_shift(
    train_errors, oc: ConditionLike, test_errors
) -> Tuple[RrocPoint, float]:
    """Pick the best shift on the training errors, apply it to the test errors.

    Returns the test-set (OVER, UNDER) point and its total loss. The shift is
    optimal for the training set only, so the test loss is at least the
    optimal test loss; the gap shrinks as the two error distributions match.
    """
    a = _alpha_of(oc)
    s, _ = optimal_constant_shift(train_errors, a)
    e = as_errors(test_errors)
    point = over_under(e + s)
    return point, total_loss(point, a)


class ShiftMethod:
    """A rule mapping (RROC curve, alphas) to one deployment shift per alpha.

    Subclasses implement ``shifts``; ``cost_curve`` passes them the curve of
    the errors it evaluates. ``kind`` names the method in reports.
    """

    kind: str = "abstract"

    def shifts(self, curve: RrocCurve, alphas) -> np.ndarray:
        raise NotImplementedError


class NoShift(ShiftMethod):
    """No adjustment: the model is deployed as-is (a single RROC point)."""

    kind = "none"

    def shifts(self, curve: RrocCurve, alphas) -> np.ndarray:
        return np.zeros(len(alphas))


class OptimalConstantShift(ShiftMethod):
    """Oracle method: the loss-minimizing constant shift on the target errors."""

    kind = "optimal_constant"

    def shifts(self, curve: RrocCurve, alphas) -> np.ndarray:
        return curve.shift[_optimal_vertices(curve, alphas)[0]]


class TrainedConstantShift(ShiftMethod):
    """Constant shift fitted on held-out training errors, then reused."""

    kind = "trained_constant"

    def __init__(self, train_errors):
        self.train_curve = rroc_curve(train_errors)

    def shifts(self, curve: RrocCurve, alphas) -> np.ndarray:
        return OptimalConstantShift().shifts(self.train_curve, alphas)


def default_alpha_grid() -> np.ndarray:
    """101 evenly spaced operating conditions including both endpoints."""
    return np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class CostCurve:
    """Mean asymmetric loss per example against alpha, for one (model, method).

    Per-example (not total) loss keeps curves from different dataset sizes
    comparable. For the no-adjustment method the curve is affine in alpha.
    """

    alphas: np.ndarray
    losses: np.ndarray
    method: str


def cost_curve(errors, method: ShiftMethod, alphas=None) -> CostCurve:
    """Evaluate a shift-choice method across a grid of operating conditions.

    The method reads one RROC curve of the errors and must return one finite
    shift per alpha; the shifted models are read off that curve by
    ``over_under_at``.
    """
    e = as_errors(errors)
    grid = default_alpha_grid() if alphas is None else np.asarray(alphas, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DataError("alpha grid must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(grid)) or grid.min() < 0.0 or grid.max() > 1.0:
        raise DataError("alpha grid values must lie in [0, 1]")
    curve = rroc_curve(e)
    shifts = np.asarray(method.shifts(curve, grid), dtype=float)
    if shifts.shape != grid.shape:
        raise DataError(f"shift method {method.kind!r} returned {shifts.size} shifts "
                        f"for {grid.size} alphas")
    over, under = over_under_at(curve, shifts)
    losses = _total_losses(over, under, grid) / e.size
    return CostCurve(alphas=grid, losses=losses, method=method.kind)
