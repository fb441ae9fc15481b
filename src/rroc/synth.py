"""Synthetic dataset generation for the statistical checks and demos."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .data import Dataset
from .errors import ConfigError, _shown

__all__ = ["generate_synthetic"]

# random:            predictions drawn fresh from the data distribution
# actual-plus-noise: predictions are the actual values plus distribution noise
# constant-mean:     every prediction is the sample mean of the actual values
MODEL_KINDS = ("random", "actual-plus-noise", "constant-mean")


def parse_distribution(spec: str) -> Tuple[float, float]:
    """Parse a distribution spec like ``normal:0,0.01`` into (mu, sigma)."""
    name, sep, params = spec.partition(":")
    if name != "normal" or not sep:
        raise ConfigError(f"unsupported distribution spec {spec!r} (expected normal:<mu>,<sigma>)")
    parts = params.split(",")
    if len(parts) != 2:
        raise ConfigError(f"normal distribution needs mu,sigma, got {params!r}")
    try:
        mu, sigma = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"unparseable distribution parameters {params!r}") from None
    if not (np.isfinite(mu) and np.isfinite(sigma)) or sigma < 0:
        raise ConfigError(f"invalid normal parameters mu={mu!r}, sigma={sigma!r}")
    return mu, sigma


def generate_synthetic(mu: float, sigma: float, n: int, model: str, seed: int) -> Dataset:
    """Actual values from normal(mu, sigma) plus one synthetic model.

    Deterministic for a fixed seed: the actual values are drawn first, then
    any model-specific draws, so different model kinds share the same actual
    values under the same seed.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {_shown(n, str)}")
    # The most float64 values whose size in bytes numpy can describe.
    largest = np.iinfo(np.intp).max // np.dtype(float).itemsize
    if n > largest:
        raise ConfigError(f"n must be at most {largest}, got {_shown(n, str)}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {_shown(seed, str)}")
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model!r} (choose from {', '.join(MODEL_KINDS)})")
    rng = np.random.default_rng(seed)
    # A draw, sum or mean beyond the float range is inf or nan, which Dataset
    # rejects as a data error; numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        actual = rng.normal(mu, sigma, n)
        if model == "random":
            predictions = rng.normal(mu, sigma, n)
        elif model == "actual-plus-noise":
            predictions = actual + rng.normal(0.0, sigma, n)
        else:
            predictions = np.full(n, actual.mean())
    return Dataset(actual=actual, predicted={model: predictions})
