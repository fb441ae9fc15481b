"""Dataset container and CSV ingestion.

Input format: a UTF-8 CSV with a header row, an ``actual`` column and either
a single ``predicted`` column or one ``predicted:<model-id>`` column per
model. Decimal point notation, no locale handling. Unrelated columns are
ignored. Row order is preserved. One leading byte order mark, as spreadsheet
tools write it, is skipped.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .core import error_vector
from .errors import ConfigError, DataError

__all__ = ["Dataset", "DEFAULT_MODEL_ID", "load_predictions", "write_predictions"]

ACTUAL_COLUMN = "actual"
PREDICTED_COLUMN = "predicted"
PREDICTED_PREFIX = "predicted:"
DEFAULT_MODEL_ID = "model"
# What ``surrogateescape`` decodes an undecodable byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# Records converted per block: large enough to amortise the per-block calls,
# small enough that a block's cell strings stay a small share of the input.
_BLOCK_RECORDS = 1024


@dataclass(frozen=True)
class Dataset:
    """Actual values plus one prediction vector per model id."""

    actual: np.ndarray
    predicted: Dict[str, np.ndarray]

    def __post_init__(self):
        a = np.asarray(self.actual, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise DataError("actual values must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(a)):
            raise DataError("actual values contain non-finite entries")
        if not self.predicted:
            raise DataError("dataset needs at least one model")
        object.__setattr__(self, "actual", a)
        cleaned = {}
        for model_id, p in self.predicted.items():
            p = np.asarray(p, dtype=float)
            if p.shape != a.shape:
                raise DataError(
                    f"model {model_id!r} has {p.size} predictions for {a.size} actuals"
                )
            if not np.all(np.isfinite(p)):
                raise DataError(f"model {model_id!r} has non-finite predictions")
            cleaned[model_id] = p
        object.__setattr__(self, "predicted", cleaned)

    @property
    def n(self) -> int:
        return int(self.actual.size)

    @property
    def model_ids(self):
        return list(self.predicted)

    def errors(self, model_id: str) -> np.ndarray:
        if model_id not in self.predicted:
            raise ConfigError(f"unknown model id {model_id!r}")
        return error_vector(self.predicted[model_id], self.actual)


def _model_columns(header) -> Dict[str, str]:
    """Map model id -> column name from a CSV header."""
    columns = {}
    for name in header:
        if name == PREDICTED_COLUMN:
            model_id = DEFAULT_MODEL_ID
        elif name.startswith(PREDICTED_PREFIX):
            model_id = name[len(PREDICTED_PREFIX):]
            if not model_id:
                raise ConfigError(f"empty model id in column {name!r}")
        else:
            continue
        if model_id in columns:
            raise ConfigError(f"duplicate model id {model_id!r} in header")
        columns[model_id] = name
    return columns


def _read_utf8(path) -> bytes:
    """The file's bytes, checked to be UTF-8.

    Undecodable bytes are a DataError naming the record and the byte offset
    in the file, a byte order mark included.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: {_escaped_record(raw)}invalid UTF-8 byte at offset {exc.start}"
        ) from None
    return raw


def _records(raw: bytes, errors: str = "strict"):
    """CSV records of the bytes, decoded as read; one leading byte order mark is skipped."""
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", errors=errors, newline="")
    return csv.reader(text)


def _escaped_record(raw: bytes) -> str:
    """``"header: "`` or ``"row N: "`` for the first CSV record holding an undecodable byte.

    Rows are numbered as ``load_predictions`` numbers them: from 1 after the
    header, blank records skipped, so a quoted cell spanning lines is one row.
    Empty when the csv module rejects the text before that record.
    """
    records = _records(raw, errors="surrogateescape")
    try:
        for number, cells in enumerate(itertools.chain([next(records)], filter(None, records))):
            if any(_ESCAPED_BYTE.search(cell) for cell in cells):
                return f"row {number}: " if number else "header: "
    except csv.Error:
        pass
    return ""


def _used_columns(header, path):
    """The model ids, and the header indices of ``actual`` and then of each model's column."""
    if header is None:
        raise DataError(f"{path}: no rows")
    if ACTUAL_COLUMN not in header:
        raise ConfigError(f"{path}: missing required column {ACTUAL_COLUMN!r}")
    if header.count(ACTUAL_COLUMN) > 1:
        raise ConfigError(f"{path}: duplicate column {ACTUAL_COLUMN!r} in header")
    columns = _model_columns(header)
    if not columns:
        raise ConfigError(
            f"{path}: need a {PREDICTED_COLUMN!r} or {PREDICTED_PREFIX}<model-id> column"
        )
    return list(columns), [header.index(name) for name in [ACTUAL_COLUMN, *columns.values()]]


def _bulk_columns(rows, width: int, indices):
    """The columns at ``indices`` of every row as finite float arrays, in blocks.

    None when any block has a row of another width, a cell ``float`` rejects,
    a non-finite value or a line the csv module rejects, or when there are no
    rows: the record-by-record loop then decides what the file holds.
    """
    blocks = []
    try:
        while block := list(itertools.islice(rows, _BLOCK_RECORDS)):
            if set(map(len, block)) != {width}:
                return None
            cells = list(zip(*block))
            blocks.append([np.fromiter(map(float, cells[i]), float, len(block)) for i in indices])
    except (csv.Error, ValueError):
        return None
    columns = [np.concatenate(column) for column in zip(*blocks)]
    if not columns or not all(np.isfinite(column).all() for column in columns):
        return None
    return columns


def load_predictions(path) -> Dataset:
    """Parse a predictions CSV into a Dataset; a line the csv module rejects is a DataError.

    Rows are converted in blocks of ``_BLOCK_RECORDS`` with ``float``. If any
    block fails, the file is read again record by record, and that loop words
    the first error.
    """
    raw = _read_utf8(path)
    header, row_number = None, 0
    try:
        records = _records(raw)
        header = next(records, None)
        model_ids, indices = _used_columns(header, path)
        values = _bulk_columns(filter(None, records), len(header), indices)
        if values is None:
            records = _records(raw)
            next(records)
            values = [[] for _ in indices]
            for row_number, cells in enumerate(filter(None, records), start=1):
                if len(cells) > len(header):
                    raise DataError(
                        f"{path}: row {row_number}: {len(cells)} cells "
                        f"for {len(header)} header columns"
                    )
                for column, index in zip(values, indices):
                    cell = cells[index] if index < len(cells) else None
                    column.append(_parse_cell(cell, header[index], path, row_number))
            if not row_number:
                raise DataError(f"{path}: no rows")
    except csv.Error as exc:
        # The reader failed on the header or on the row after the last one numbered.
        where = "header" if header is None else f"row {row_number + 1}"
        raise DataError(f"{path}: {where}: {exc}") from None
    actual, *predicted = map(np.asarray, values)
    return Dataset(actual=actual, predicted=dict(zip(model_ids, predicted)))


def _parse_cell(raw, column: str, path, row_number: int) -> float:
    if raw is None or raw.strip() == "":
        raise DataError(f"{path}: row {row_number}: missing value in column {column!r}")
    try:
        value = float(raw)
    except ValueError:
        raise DataError(
            f"{path}: row {row_number}: unparseable number {raw!r} in column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {row_number}: non-finite value in column {column!r}")
    return value


def write_predictions(dataset: Dataset, path) -> None:
    """Write a Dataset as CSV; floats use repr so re-ingestion is lossless.

    Rows are written in blocks of ``_BLOCK_RECORDS``, each column of a block
    taken as Python floats with one ``tolist``.
    """
    model_ids = dataset.model_ids
    columns = [dataset.actual, *(dataset.predicted[m] for m in model_ids)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([ACTUAL_COLUMN] + [PREDICTED_PREFIX + m for m in model_ids])
        for start in range(0, dataset.n, _BLOCK_RECORDS):
            block = [map(repr, c[start:start + _BLOCK_RECORDS].tolist()) for c in columns]
            writer.writerows(zip(*block))
