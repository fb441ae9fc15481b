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

# ``over_under`` is not called here. It stays bound because rrocbench's
# harness test checks that its tracer wraps this binding too.
from .core import ConditionLike, _alpha_of, _alphas, _finite, _floats, _total_losses, over_under
from .curve import RrocCurve, _optimal_vertices, over_under_at, rroc_curve
from .errors import DataError, _shown

__all__ = [
    "ShiftMethod",
    "NoShift",
    "OptimalConstantShift",
    "TrainedConstantShift",
    "CostCurve",
    "apply_shift",
    "optimal_constant_shift",
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
        raise DataError(f"shift must be finite, got {_shown(s)}")
    with np.errstate(over="ignore"):
        return _finite(_floats(predictions, "predictions") + shift, "shifted predictions overflow")


def optimal_constant_shift(errors, oc: ConditionLike) -> Tuple[float, float]:
    """The constant shift minimizing the total asymmetric loss, with its loss.

    The optimum is the RROC curve vertex whose neighbouring segment slopes
    bracket the isometric slope; on exact loss ties (plateaus) the shift with
    smallest magnitude wins. The loss is the total loss of that vertex.
    """
    curve = rroc_curve(errors)
    i, loss = _optimal_vertices(curve, [_alpha_of(oc)])
    return float(curve.shift[i[0]]), float(loss[0])


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
        return np.zeros(_alphas(alphas).size)


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
    curve = rroc_curve(errors)
    grid = default_alpha_grid() if alphas is None else _alphas(alphas)
    over, under = over_under_at(curve, method.shifts(curve, grid))
    if over.shape != grid.shape:
        raise DataError(f"shift method {method.kind!r} returned {over.size} shifts "
                        f"for {grid.size} alphas")
    losses = _total_losses(over, under, grid) / curve.n
    return CostCurve(alphas=grid, losses=losses, method=method.kind)
