import csv
import errno
import io
import itertools
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import rroc.data
from rroc import ConfigError, DataError, Dataset, load_predictions, write_predictions
from rroc.data import ACTUAL_COLUMN, DEFAULT_MODEL_ID, PREDICTED_COLUMN, PREDICTED_PREFIX, _model_columns
from rroc.synth import generate_synthetic

from .test_report_cli import hostile_csv


class TestLoadPredictions:
    def test_multi_model_layout(self, predictions_csv):
        ds = load_predictions(predictions_csv)
        assert ds.n == 10
        assert ds.model_ids == ["m1", "m2", "m3"]
        assert ds.actual[0] == 0.211
        assert ds.predicted["m1"][0] == -0.082

    def test_single_model_column(self, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("actual,predicted\n1.0,1.5\n2.0,1.0\n")
        ds = load_predictions(path)
        assert ds.model_ids == [DEFAULT_MODEL_ID]
        assert list(ds.errors(DEFAULT_MODEL_ID)) == [0.5, -1.0]

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "ordered.csv"
        path.write_text("actual,predicted\n3.0,0.0\n1.0,0.0\n2.0,0.0\n")
        assert list(load_predictions(path).actual) == [3.0, 1.0, 2.0]

    def test_unrelated_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("id,actual,predicted:a,note\nr1,1.0,2.0,x\n")
        ds = load_predictions(path)
        assert ds.model_ids == ["a"]

    def test_missing_actual_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("predicted\n1.0\n")
        with pytest.raises(ConfigError, match="actual"):
            load_predictions(path)

    def test_missing_prediction_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("actual\n1.0\n")
        with pytest.raises(ConfigError, match="predicted"):
            load_predictions(path)

    def test_unparseable_number_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("actual,predicted\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError, match="row 2"):
            load_predictions(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no rows"):
            load_predictions(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("actual,predicted\n")
        with pytest.raises(DataError, match="no rows"):
            load_predictions(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("actual,predicted\n1.0,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_predictions(path)

    def test_non_utf8_bytes_report_row(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"actual,predicted\n1.0,2.0\n1.0,2.5\xff\n")
        with pytest.raises(DataError, match="row 2: invalid UTF-8"):
            load_predictions(path)

    # A bad byte and a bad number in one place get one row number: the
    # record's, not the line's.
    @pytest.mark.parametrize("rows", [b'"1\n",2\n', b"\n1,2\n\n"], ids=["quoted-newline", "blank-lines"])
    @pytest.mark.parametrize("cell, message", [
        (b"\xff", "row 2: invalid UTF-8 byte at offset {offset}$"),
        (b"x", "row 2: unparseable number"),
    ], ids=["bad-byte", "bad-number"])
    def test_rows_are_numbered_by_record(self, tmp_path, rows, cell, message):
        path = tmp_path / "records.csv"
        data = b"actual,predicted\n" + rows + b"1," + cell + b"\n"
        path.write_bytes(data)
        with pytest.raises(DataError, match=message.format(offset=data.index(cell))):
            load_predictions(path)

    def test_bad_byte_after_a_csv_error_keeps_its_offset(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_bytes(b"actual,predicted\n1," + b"9" * 140_000 + b"\n1,\xff\n")
        with pytest.raises(DataError, match=r"big.csv: invalid UTF-8 byte at offset 140022$"):
            load_predictions(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        data = b"actual,predicted:a,predicted:b\n1.0,2.0,0.5\n-3.0,-2.5,1e-3\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(data)
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        want, got = load_predictions(plain), load_predictions(marked)
        assert got.model_ids == want.model_ids == ["a", "b"]
        assert got.actual.tobytes() == want.actual.tobytes()
        for m in want.model_ids:
            assert got.predicted[m].tobytes() == want.predicted[m].tobytes()

    def test_invalid_byte_after_a_byte_order_mark_reports_its_file_offset(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfactual,predicted\n1.0,2.0\xff\n")
        with pytest.raises(DataError, match="row 1: invalid UTF-8 byte at offset 27$"):
            load_predictions(path)

    @pytest.mark.parametrize("where, text", [
        ("row 2", "actual,predicted\n1,2\n1,{big}\n"),
        ("header", "actual,predicted,{big}\n1,2,3\n"),
    ], ids=["row", "header"])
    def test_cell_over_the_csv_field_limit_reports_row(self, tmp_path, where, text):
        path = tmp_path / "big.csv"
        path.write_text(text.format(big="9" * 140_000))
        with pytest.raises(DataError, match=f"{where}: field larger than field limit"):
            load_predictions(path)

    def test_extra_cells_report_row(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("actual,predicted\n1.0,2.0\n1.0,2.5,3.0\n")
        with pytest.raises(DataError, match="row 2: 3 cells for 2 header columns"):
            load_predictions(path)

    def test_duplicate_model_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("actual,predicted:a,predicted:a\n1.0,2.0,3.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_predictions(path)

    def test_duplicate_actual_column(self, tmp_path):
        # csv.DictReader keeps the later of two equal headers; neither may win.
        path = tmp_path / "dup.csv"
        path.write_text("actual,predicted,actual\n1,2,5\n2,3,7\n")
        with pytest.raises(ConfigError, match="duplicate column 'actual'"):
            load_predictions(path)

    @pytest.mark.parametrize(
        "header", ["actual,predicted,predicted:model", "actual,predicted:model,predicted"]
    )
    def test_predicted_collides_with_default_model_id(self, tmp_path, header):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(ConfigError, match=f"duplicate model id {DEFAULT_MODEL_ID!r}"):
            load_predictions(path)


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(actual=np.array([1.0, 2.0]), predicted={"a": np.array([1.0])})

    def test_needs_a_model(self):
        with pytest.raises(DataError):
            Dataset(actual=np.array([1.0]), predicted={})

    def test_unknown_model_errors(self):
        ds = Dataset(actual=np.array([1.0]), predicted={"a": np.array([2.0])})
        with pytest.raises(ConfigError):
            ds.errors("b")

    def test_errors_are_signed(self):
        ds = Dataset(actual=np.array([1.0, 5.0]), predicted={"a": np.array([2.0, 3.0])})
        assert list(ds.errors("a")) == [1.0, -2.0]


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        ds = generate_synthetic(0.0, 0.01, 200, "actual-plus-noise", seed=7)
        path = tmp_path / "synth.csv"
        write_predictions(ds, path)
        back = load_predictions(path)
        assert back.model_ids == ds.model_ids
        assert np.array_equal(back.actual, ds.actual)
        for m in ds.model_ids:
            assert np.array_equal(back.predicted[m], ds.predicted[m])

    def test_bytes_match_the_row_by_row_writer(self, tmp_path):
        # The writer that indexed one numpy scalar per cell is the oracle.
        def reference_write(dataset, path):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([ACTUAL_COLUMN] + [PREDICTED_PREFIX + m for m in dataset.model_ids])
                for i in range(dataset.n):
                    writer.writerow([repr(float(dataset.actual[i]))]
                                    + [repr(float(dataset.predicted[m][i])) for m in dataset.model_ids])

        rng = np.random.default_rng(3)
        # Three blocks of rows, with -0.0, subnormals, the float extremes and 17-digit values.
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-7]
        actual = np.concatenate((special, rng.normal(0.0, 1.0, 2500)))
        ds = Dataset(actual, {"a": -actual, "b,\"q\"": rng.normal(0.0, 1e-310, actual.size),
                              "c": np.float32(1) / 3 + actual[::-1]})
        write_predictions(ds, tmp_path / "new.csv")
        reference_write(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        lines = (tmp_path / "new.csv").read_text().splitlines()
        assert lines[1].startswith("-0.0,0.0,") and lines[3].startswith("5e-324,-5e-324,")

    @pytest.mark.parametrize("fails_on", ["write", "close"])
    def test_full_disk_leaves_no_file_and_names_the_target(self, tmp_path, monkeypatch, fails_on):
        real_open = open

        class FullDisk:
            """The staged file, failing as a full disk does: on a later write, or on close."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if fails_on == "write" and self.writes > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()
                if fails_on == "close":
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(rroc.data, "open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False)
        target = tmp_path / "x.csv"
        with pytest.raises(OSError) as info:
            write_predictions(generate_synthetic(0.0, 1.0, 5000, "random", seed=1), target)
        assert info.value.errno == errno.ENOSPC
        assert str(target) in str(info.value)
        assert list(tmp_path.iterdir()) == []


# The record-by-record loader that the block loader replaced: csv.DictReader
# over the whole decoded text and one float() call per cell. Its arrays and
# its errors are the oracle for load_predictions.
def reference_load(path) -> Dataset:
    header, row_number = None, 0
    with io.StringIO(_reference_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
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
            actual = []
            predicted = {model_id: [] for model_id in columns}
            for row_number, row in enumerate(reader, start=1):
                if None in row:
                    raise DataError(
                        f"{path}: row {row_number}: {len(header) + len(row[None])} cells "
                        f"for {len(header)} header columns"
                    )
                actual.append(_reference_cell(row, ACTUAL_COLUMN, path, row_number))
                for model_id, column in columns.items():
                    predicted[model_id].append(_reference_cell(row, column, path, row_number))
            if not actual:
                raise DataError(f"{path}: no rows")
        except csv.Error as exc:
            where = "header" if header is None else f"row {row_number + 1}"
            raise DataError(f"{path}: {where}: {exc}") from None
    return Dataset(actual=np.array(actual), predicted={k: np.array(v) for k, v in predicted.items()})


def _reference_text(path) -> str:
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        text = raw.decode("utf-8", "surrogateescape")
        where = ""
        records = csv.reader(io.StringIO(text, newline=""))
        try:
            for number, cells in enumerate(itertools.chain([next(records)], filter(None, records))):
                if any(re.search("[\udc80-\udcff]", cell) for cell in cells):
                    where = f"row {number}: " if number else "header: "
                    break
        except csv.Error:
            pass
        raise DataError(f"{path}: {where}invalid UTF-8 byte at offset {exc.start}") from None


def _reference_cell(row, column, path, row_number) -> float:
    raw = row.get(column)
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


def outcome(load, path):
    """What a loader makes of a file: its arrays as bytes, or its error's type and message."""
    try:
        ds = load(path)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return ds.model_ids, ds.actual.tobytes(), [ds.predicted[m].tobytes() for m in ds.model_ids]


class TestAgainstReferenceLoader:
    @given(hostile_csv())
    @settings(max_examples=300, deadline=None)
    def test_same_arrays_or_same_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(data)
            assert outcome(load_predictions, path) == outcome(reference_load, path)

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("actual,predicted\n-0.0,0.0\n0.0,-0\n")
        ds = load_predictions(path)
        assert np.signbit(ds.actual).tolist() == [True, False]
        assert np.signbit(ds.predicted[DEFAULT_MODEL_ID]).tolist() == [False, True]
        assert outcome(load_predictions, path) == outcome(reference_load, path)

    # The file is decoded as it is read, 8 kB at a time: a line end or a
    # quoted line break must not change meaning where a read ends.
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_across_reads_match_the_reference(self, tmp_path, bom, eol):
        path = tmp_path / "chunks.csv"
        for pad in range(13):
            rows = [b"actual,predicted,note"]
            for i in range(1200):
                note = b'"a' + eol + b'b"' if i % 7 == 3 else b"x" * ((i + pad) % 13)
                rows.append(b"%d.5,%d,%s" % (i, -i, note))
            path.write_bytes(bom + eol.join(rows) + eol)
            assert outcome(load_predictions, path) == outcome(reference_load, path)


# Files of 3,000 records, so 2.9 blocks of 1,024, with one defect in the
# second or third block, after a blank record or a quoted cell spanning lines.
# name: (the defective record, from the cells actual, predicted:a, predicted:b
# and note; the message, or None where the file loads)
DEFECTS = {
    "bad-cell": (lambda x, a, b, note: [x, "1.5x", b, note], "unparseable number '1.5x'"),
    "blank-cell": (lambda x, a, b, note: [x, a, " ", note], "missing value in column 'predicted:b'"),
    "non-finite": (lambda x, a, b, note: ["-inf", a, b, note], "non-finite value in column 'actual'"),
    "too-wide": (lambda x, a, b, note: [x, a, b, note, "9"], "5 cells for 4 header columns"),
    "too-short": (lambda x, a, b, note: [x, a], "missing value in column 'predicted:b'"),
    "field-limit": (lambda x, a, b, note: [x, a, b, "9" * 140_000], "field larger than field limit"),
    "short-of-unused": (lambda x, a, b, note: [x, a, b], None),
}
PLACES = {"block-2": (1500, ""), "block-3-after-blank": (2100, "blank"),
          "block-3-after-multi-line": (2900, "multi-line")}


def _block_file(path, defect, row, before):
    rng = np.random.default_rng(row)
    lines = ["actual,predicted:a,predicted:b,note"]
    for number in range(1, 3001):
        cells = [repr(v) for v in rng.normal(size=3).tolist()] + ["x"]
        if number == row - 1 and before == "multi-line":
            cells[3] = '"first\nsecond"'
        if number == row:
            cells = defect(*cells)
        lines.append(",".join(cells))
        if number == row - 1 and before == "blank":
            lines.append("")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("name", DEFECTS)
def test_defect_in_a_later_block_matches_the_reference(tmp_path, name, place):
    path = tmp_path / "blocks.csv"
    defect, message = DEFECTS[name]
    row, before = PLACES[place]
    _block_file(path, defect, row, before)
    got = outcome(load_predictions, path)
    assert got == outcome(reference_load, path)
    if message is None:
        assert got[0] == ["a", "b"] and len(got[1]) == 3000 * 8
    else:
        assert got[0] is DataError
        assert got[1].startswith(f"{path}: row {row}: ") and message in got[1]


def _counted(monkeypatch, name):
    """Replace ``rroc.data.<name>`` by a wrapper; returns the list its calls append to."""
    calls, real = [], getattr(rroc.data, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rroc.data, name, counting)
    return calls


def test_bad_cell_before_a_csv_error_in_its_block_is_reported_first(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("actual,predicted\n1,x\n2," + "9" * 140_000 + "\n")
    with pytest.raises(DataError, match="row 1: unparseable number 'x'"):
        load_predictions(path)
    assert outcome(load_predictions, path) == outcome(reference_load, path)


def test_rows_short_of_an_unused_column_convert_in_bulk(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    rows = [",".join(map(repr, row)) for row in rng.normal(size=(3000, 3)).tolist()]
    header = "actual,predicted:a,predicted:b,note"
    full, short = tmp_path / "full.csv", tmp_path / "short.csv"
    full.write_text("\n".join([header] + [row + ",x" for row in rows]) + "\n")
    short.write_text("\n".join([header] + rows) + "\n")
    want = outcome(load_predictions, full)
    calls = _counted(monkeypatch, "_parse_cell")
    assert outcome(load_predictions, short) == want
    assert len(want[1]) == 3000 * 8 and calls == []


def test_only_the_block_holding_an_error_is_parsed_cell_by_cell(tmp_path, monkeypatch):
    path = tmp_path / "blocks.csv"
    _block_file(path, DEFECTS["bad-cell"][0], 2500, "")
    cells, readers = _counted(monkeypatch, "_parse_cell"), _counted(monkeypatch, "_records")
    with pytest.raises(DataError, match="row 2500: unparseable number '1.5x'"):
        load_predictions(path)
    assert 0 < len(cells) <= rroc.data._BLOCK_RECORDS * 3
    assert len(readers) == 1


def test_load_peak_memory_is_under_three_times_the_file(tmp_path):
    # 100,000 rows x 3 models of repr floats, as rrocbench/gen.py writes them.
    rng = np.random.default_rng(5)
    table = rng.normal(size=(100_000, 4)).tolist()
    path = tmp_path / "big.csv"
    path.write_text("\n".join(["actual,predicted:a,predicted:b,predicted:c"]
                              + [",".join(map(repr, row)) for row in table]) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_predictions(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size, f"peak {peak / size:.2f}x the file's {size} bytes"
