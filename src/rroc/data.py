"""Dataset container, CSV ingestion and the all-or-nothing file writer.

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
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Dict

import numpy as np

from .core import error_vector
from .errors import ConfigError, DataError

__all__ = ["Dataset", "load_predictions", "write_predictions"]

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


def _block_columns(block, header, indices, path, first_row: int):
    """The columns at ``indices`` of the records from row ``first_row`` on, as finite float arrays.

    They convert in bulk with ``float`` when each record holds every used
    column and is no wider than the header. Otherwise, or when a cell fails,
    the block is parsed cell by cell, and its first bad record or cell raises.
    """
    if max(indices) < min(map(len, block)) and max(map(len, block)) <= len(header):
        cells = list(zip(*block))
        try:
            columns = [np.fromiter(map(float, cells[i]), float, len(block)) for i in indices]
            if all(np.isfinite(column).all() for column in columns):
                return columns
        except ValueError:
            pass
    values = []
    for row_number, cells in enumerate(block, start=first_row):
        if len(cells) > len(header):
            raise DataError(f"{path}: row {row_number}: {len(cells)} cells "
                            f"for {len(header)} header columns")
        values.append([_parse_cell(cells[i] if i < len(cells) else None, header[i], path, row_number)
                       for i in indices])
    return [np.array(column, dtype=float) for column in zip(*values)]


def load_predictions(path) -> Dataset:
    """Parse a predictions CSV into a Dataset; a line the csv module rejects is a DataError.

    Each record is read once, in blocks of ``_BLOCK_RECORDS``. A block
    converts in bulk, and only a block holding an error is parsed cell by
    cell, which words the first error by row.
    """
    raw = _read_utf8(path)
    header, row_number, block, blocks = None, 0, [], []
    try:
        records = _records(raw)
        header = next(records, None)
        model_ids, indices = _used_columns(header, path)
        while True:
            # ``extend`` keeps the records read before a csv.Error, for the handler.
            block.extend(itertools.islice(filter(None, records), _BLOCK_RECORDS))
            if not block:
                break
            blocks.append(_block_columns(block, header, indices, path, row_number + 1))
            row_number, block = row_number + len(block), []
        if not row_number:
            raise DataError(f"{path}: no rows")
    except csv.Error as exc:
        # The reader failed on the header or on the row after the last one
        # read; a bad cell read before it in the same block comes first.
        if block:
            _block_columns(block, header, indices, path, row_number + 1)
        where = "header" if header is None else f"row {row_number + len(block) + 1}"
        raise DataError(f"{path}: {where}: {exc}") from None
    actual, *predicted = (np.concatenate(column) for column in zip(*blocks))
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

    The file is staged by ``_write_all``, so a failed write leaves no file.
    Rows are written in blocks of ``_BLOCK_RECORDS``, each column of a block
    taken as Python floats with one ``tolist``.
    """
    _write_all([(path, partial(_write_csv, dataset))])


def _write_csv(dataset: Dataset, fh) -> None:
    """Write a Dataset as CSV to a text file opened with ``newline=""``."""
    model_ids = dataset.model_ids
    columns = [dataset.actual, *(dataset.predicted[m] for m in model_ids)]
    writer = csv.writer(fh)
    writer.writerow([ACTUAL_COLUMN] + [PREDICTED_PREFIX + m for m in model_ids])
    for start in range(0, dataset.n, _BLOCK_RECORDS):
        block = [map(repr, c[start:start + _BLOCK_RECORDS].tolist()) for c in columns]
        writer.writerows(zip(*block))


def _write_all(payloads) -> None:
    """Write (path, write) pairs so that either all targets appear or none.

    Each ``write`` is called with a UTF-8 text file, opened with
    ``newline=""``, staged beside its target; the temp files are moved into
    place only once every one of them is written, and any left over after a
    failure are removed. An ``OSError`` from opening, writing or closing a
    staged file is raised again naming its target.
    """
    staged = []
    try:
        for path, write in payloads:
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                fh = open(tmp, "w", encoding="utf-8", newline="")
                staged.append(tmp)
                with fh:
                    write(fh)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp, (path, _) in zip(staged, payloads):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
