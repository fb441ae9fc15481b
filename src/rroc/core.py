"""Error vectors, scalar metrics, the asymmetric absolute loss and RROC points.

Conventions used throughout the package:

* Errors are signed: ``e_i = predicted_i - actual_i``. Positive errors are
  over-estimations, negative errors under-estimations.
* ``OVER`` sums the strictly positive errors, ``UNDER`` the strictly negative
  ones. Exact zeros contribute to neither (they carry no loss either way).
* Variance is the population variance (divide by n, not n-1). Most statistics
  libraries default to n-1; the n divisor is what makes AOC equal
  ``variance * n**2 / 2``.
* The asymmetry ``alpha`` lives in [0, 1]; higher values make under-estimation
  costlier. ``alpha = 0`` and ``alpha = 1`` are legal and map to isometric
  slopes of infinity and zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataError, _shown

__all__ = [
    "OperatingCondition",
    "RrocPoint",
    "SummaryMetrics",
    "error_vector",
    "over_under",
    "metrics",
    "asymmetric_loss",
    "total_loss",
]


def _real(value) -> float:
    """``value`` as a float: the one conversion of a caller's single number.

    A real number (numpy scalars, ``Fraction`` and bools of either kind)
    converts, an int beyond the float range is the infinity of its sign, and
    anything else (a string, None, a complex, an array) is NaN, which range checks reject.
    """
    try:
        return float(value) if isinstance(value, (numbers.Real, np.bool_)) else math.nan
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class OperatingCondition:
    """Cost asymmetry alpha in [0, 1] with its derived isometric slope.

    The one map between an alpha and its slope. Any real number is accepted
    (numpy scalars included) and stored as a float.
    """

    alpha: float

    def __post_init__(self):
        alpha = _real(self.alpha)
        if not 0.0 <= alpha <= 1.0:
            raise DataError(f"alpha must be in [0, 1], got {_shown(self.alpha)}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def slope(self) -> float:
        """Isometric slope (1 - alpha) / alpha; infinity at alpha = 0."""
        if self.alpha == 0.0:
            return math.inf
        return (1.0 - self.alpha) / self.alpha

    @classmethod
    def from_slope(cls, slope: float) -> "OperatingCondition":
        """Inverse mapping alpha = 1 / (1 + slope); slope=inf (or 10**400) gives alpha=0."""
        s = _real(slope)
        if not s >= 0.0:
            raise DataError(f"slope must be nonnegative, got {_shown(slope)}")
        return cls(1.0 / (1.0 + s))


ConditionLike = Union[OperatingCondition, float, int]


def _alpha_of(oc: ConditionLike) -> float:
    """Accept an OperatingCondition or a bare alpha and validate it."""
    if isinstance(oc, OperatingCondition):
        return oc.alpha
    return OperatingCondition(oc).alpha


@dataclass(frozen=True)
class RrocPoint:
    """A model's position in RROC space: (total OVER, total UNDER).

    Both coordinates are stored as floats, ``over >= 0`` and ``under <= 0``.
    A coordinate is infinite only in the extreme models (0, -inf) and (inf, 0).
    """

    over: float
    under: float

    def __post_init__(self):
        over, under = _real(self.over), _real(self.under)
        if not over >= 0.0:
            raise DataError(f"over must be >= 0, got {_shown(self.over)}")
        if not under <= 0.0:
            raise DataError(f"under must be <= 0, got {_shown(self.under)}")
        if math.isinf(over) and under != 0.0 or math.isinf(under) and over != 0.0:
            raise DataError(f"point ({_shown(self.over)}, {_shown(self.under)}) is infinite but not an extreme")
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "under", under)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.over) and math.isfinite(self.under)

    @property
    def mmse(self) -> float:
        """Euclidean distance to RROC heaven (0, 0)."""
        return math.hypot(self.over, self.under)


@dataclass(frozen=True)
class SummaryMetrics:
    """Scalar error metrics for one model on one dataset.

    ``mse = variance + bias**2`` and ``mae * n = over - under`` hold up to
    float rounding; ``mmse`` is the Euclidean distance of the (OVER, UNDER)
    point to heaven.
    """

    mae: float
    mse: float
    bias: float
    variance: float
    mmse: float


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array of finite reals: the one conversion of caller numbers.

    What numpy converts to float converts, numeric strings and ``Fraction``s
    included. Complex values, what numpy cannot convert (words, ragged lists,
    an int beyond the float range) and non-finite values (None is NaN) are a
    DataError naming ``what``.
    """
    try:
        x = np.asarray(values)
        if x.dtype.kind == "c":
            raise TypeError("complex values")
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{what} must be real numbers in the float range") from None
    if not np.isfinite(x).all():
        raise DataError(f"{what} must be finite")
    return x


def _vector(values, what: str) -> np.ndarray:
    """``_floats`` of a 1-D sequence with at least one entry."""
    x = _floats(values, what)
    if x.ndim != 1 or x.size < 1:
        raise DataError(f"{what} must be a nonempty 1-D sequence, got shape {x.shape}")
    return x


def _alphas(values) -> np.ndarray:
    """``_vector`` of an alpha grid, every alpha in [0, 1]."""
    a = _vector(values, "alpha grid")
    if a.min() < 0.0 or a.max() > 1.0:
        raise DataError("alpha grid values must lie in [0, 1]")
    return a


def as_errors(errors) -> np.ndarray:
    """Validate and return a 1-D float64 error vector (finite, length >= 1)."""
    return _vector(errors, "error vector")


def error_vector(predicted: Sequence[float], actual: Sequence[float]) -> np.ndarray:
    """Signed errors ``e_i = predicted_i - actual_i``, order preserved."""
    p = _vector(predicted, "predictions")
    a = _vector(actual, "actual values")
    if p.size != a.size:
        raise DataError(f"length mismatch: {p.size} predictions vs {a.size} actuals")
    with np.errstate(over="ignore"):
        return _finite(p - a, "predicted - actual overflows")


def _finite(result, what: str = "error sums overflow"):
    """``result``, a float or arrays computed from finite inputs, if it is finite.

    The one overflow rule: library arithmetic on finite inputs runs under
    ``np.errstate(over="ignore", invalid="ignore")`` and passes its result
    here, so a sum beyond the float range is a DataError "<what> to
    non-finite values; rescale the input", never a numpy warning.
    """
    if not (math.isfinite(result) if isinstance(result, float) else np.isfinite(result).all()):
        raise DataError(f"{what} to non-finite values; rescale the input")
    return result


def over_under(errors) -> RrocPoint:
    """Total over-estimation and under-estimation of an error vector.

    Strict inequalities: exact zero errors count toward neither sum.
    """
    e = as_errors(errors)
    with np.errstate(over="ignore", invalid="ignore"):
        over = _finite(float(e[e > 0].sum()))
        under = _finite(float(e[e < 0].sum()))
    return RrocPoint(over, under)


def metrics(errors) -> SummaryMetrics:
    """Summary metrics of an error vector (population variance)."""
    e = as_errors(errors)
    return _metrics(e, over_under(e))


def _metrics(e: np.ndarray, point: RrocPoint) -> SummaryMetrics:
    """``metrics`` of converted errors ``e`` whose ``over_under`` is ``point``."""
    with np.errstate(over="ignore", invalid="ignore"):
        # np.var is the stable two-pass population variance; the mse - bias**2
        # form loses digits when the spread is tiny relative to the bias.
        sums = [np.mean(np.abs(e)), np.mean(e * e), np.mean(e), np.var(e), point.mmse]
    return SummaryMetrics(*(float(_finite(s)) for s in sums))


def asymmetric_loss(predicted: float, actual: float, oc: ConditionLike) -> float:
    """Asymmetric absolute error of a single prediction.

    ``2*alpha*(actual - predicted)`` when under-estimating,
    ``2*(1-alpha)*(predicted - actual)`` otherwise; an exact prediction
    costs 0. At alpha = 0.5 this is the plain absolute error.
    """
    e = error_vector([predicted], [actual]).item()
    return float(_total_losses(max(e, 0.0), min(e, 0.0), _alpha_of(oc)))


def _total_losses(over, under, alpha):
    """``total_loss`` elementwise over broadcast over, under and alpha arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        under_term = np.where(alpha == 0.0, 0.0, -2.0 * alpha * under)
        over_term = np.where(alpha == 1.0, 0.0, 2.0 * (1.0 - alpha) * over)
        loss = under_term + over_term
    if not np.isfinite(loss).all():  # only finite points must have finite losses
        _finite(np.where(np.isfinite(over) & np.isfinite(under), loss, 0.0), "losses overflow")
    return loss


def total_loss(point: RrocPoint, oc: ConditionLike) -> float:
    """Total asymmetric absolute loss of a point: -2a*UNDER + 2(1-a)*OVER.

    Equals the sum of ``asymmetric_loss`` over the examples behind the point.
    Zero coefficients silence the matching coordinate, so the extreme points
    get loss 0 at their own end of the alpha range (0 * inf is taken as 0).
    """
    return float(_total_losses(point.over, point.under, _alpha_of(oc)))
