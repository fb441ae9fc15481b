import numpy as np
import pytest

from rroc import ConfigError, DataError, Dataset, load_predictions, write_predictions
from rroc.data import DEFAULT_MODEL_ID
from rroc.synth import generate_synthetic


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
