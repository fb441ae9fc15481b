"""Seeded inputs for the benchmark workloads.

Inputs are made here with numpy, never with ``rroc synth`` or
``rroc.write_predictions``, so generating them never counts as program time.
Model ``i`` has errors ``normal(0.1*i, 1 + 0.2*i)`` around ``normal(0, 1)``
actual values: no ties, so every run does the same amount of work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np


def _model_ids(models: int) -> List[str]:
    return [f"m{i}" for i in range(models)]


def _predictions(rng: np.random.Generator, n: int, models: int):
    actual = rng.normal(0.0, 1.0, n)
    predicted = {
        m: actual + rng.normal(0.1 * i, 1.0 + 0.2 * i, n)
        for i, m in enumerate(_model_ids(models))
    }
    return actual, predicted


@dataclass(frozen=True)
class CsvInput:
    """A predictions CSV written for one run, with the errors it encodes."""

    path: str
    rows: int
    models: int
    bytes: int
    sha256: str
    errors: Dict[str, np.ndarray]

    def describe(self) -> dict:
        return {"rows": self.rows, "models": self.models, "bytes": self.bytes, "sha256": self.sha256}


def write_csv(path: str, seed: int, rows: int, models: int) -> CsvInput:
    """Write ``rows`` x ``models`` predictions; floats use repr so parsing is lossless."""
    rng = np.random.default_rng([seed, rows, models])
    actual, predicted = _predictions(rng, rows, models)
    ids = list(predicted)
    table = np.column_stack([actual] + [predicted[m] for m in ids]).tolist()
    lines = ["actual," + ",".join("predicted:" + m for m in ids)]
    lines += [",".join(map(repr, row)) for row in table]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    # Same subtraction as rroc.error_vector on the same float64 values.
    errors = {m: predicted[m] - actual for m in ids}
    return CsvInput(path, rows, models, len(data), hashlib.sha256(data).hexdigest(), errors)


@dataclass(frozen=True)
class Problem:
    """One small library problem: shared actual values, 3 models, one alpha."""

    actual: np.ndarray
    predicted: Dict[str, np.ndarray]
    alpha: float


def library_problems(seed: int, count: int, models: int = 3) -> List[Problem]:
    """``count`` problems with n drawn uniformly from 5..200."""
    rng = np.random.default_rng([seed, count, models, 1])
    out = []
    for _ in range(count):
        n = int(rng.integers(5, 201))
        actual, predicted = _predictions(rng, n, models)
        out.append(Problem(actual, predicted, float(rng.uniform(0.0, 1.0))))
    return out


def problems_digest(problems: List[Problem]) -> str:
    h = hashlib.sha256()
    for p in problems:
        h.update(p.actual.tobytes())
        for m, v in p.predicted.items():
            h.update(m.encode())
            h.update(v.tobytes())
        h.update(repr(p.alpha).encode())
    return h.hexdigest()
