import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from rroc import DataError, EvaluationReport, RrocCurve, RunConfig, error_density, render_svg, rroc_curve, run
from rroc.cli import main
from rroc.curve import normalized_curve
from rroc.data import Dataset
from rroc.errors import ConfigError
from rroc.report import OUTPUT_KINDS
from rroc.synth import MODEL_KINDS, generate_synthetic

from .test_analysis import reference_distinct


def analyze(predictions_csv, **kwargs):
    kwargs.setdefault("reproducible", True)
    return run(RunConfig(input=str(predictions_csv), **kwargs))


def decoded(report):
    """The report as its JSON reads back, with the top-level fields as attributes."""
    return SimpleNamespace(**json.loads(report.to_json()))


class TestRunPipeline:
    def test_point_level_hull_excludes_m2(self, predictions_csv):
        report = decoded(analyze(predictions_csv, outputs=("points", "hull")))
        assert report.hull["level"] == "points"
        assert [p["model"] for p in report.hull["points"]] == ["m1", "m3"]

    def test_curve_level_hull_provenance(self, predictions_csv):
        report = decoded(analyze(predictions_csv, outputs=("points", "curves", "hull")))
        assert report.hull["level"] == "curves"
        assert len(report.hull["points"]) == 12
        assert Counter(p["model"] for p in report.hull["points"]) == {
            "m1": 6,
            "m3": 3,
            "m2": 3,
        }

    def test_alpha_query_losses(self, predictions_csv):
        report = analyze(predictions_csv, alphas=(0.8,))
        (query,) = report.alpha_queries
        assert query["losses"]["m1"] == pytest.approx(10.1092, abs=5e-4)
        assert query["losses"]["m3"] == pytest.approx(6.1164, abs=5e-4)
        assert query["best"] == "m3"
        assert query["isometric"]["slope"] == pytest.approx(0.25)
        assert query["isometric"]["intercept"] == pytest.approx(-3.82275, abs=5e-4)

    def test_normalized_coordinates(self, predictions_csv):
        report = decoded(analyze(predictions_csv, normalize=True))
        point = report.models["m1"]["point"]
        assert point["over"] == pytest.approx(0.2569, abs=5e-5)
        assert point["under"] == pytest.approx(-0.5676, abs=5e-5)
        vertices = report.models["m1"]["curve"]["vertices"]
        assert max(v["over"] for v in vertices) < 3.0

    def test_aoc_matches_variance_identity_end_to_end(self, predictions_csv):
        report = analyze(predictions_csv)
        for m, entry in report.models.items():
            identity = entry["metrics"]["variance"] * report.n**2 / 2
            assert entry["aoc"] == pytest.approx(identity, rel=1e-9)
            assert entry["normalized_aoc"] == pytest.approx(identity / report.n**2, rel=1e-9)

    def test_cost_and_density_outputs(self, predictions_csv):
        report = analyze(predictions_csv, outputs=("points", "cost", "density"))
        cc = report.models["m2"]["cost_curves"]
        assert len(cc["alphas"]) == 101
        assert np.all(np.asarray(cc["optimal_constant"]) <= np.asarray(cc["none"]) + 1e-12)
        density = report.models["m2"]["density"]
        assert len(density["x"]) == len(density["density"]) == 256
        assert min(density["density"]) >= 0.0

    def test_dominance_in_report(self, predictions_csv):
        report = decoded(analyze(predictions_csv, outputs=("points", "dominance")))
        regions = report.dominance
        assert regions[0]["alpha_low"] == 0.0
        assert regions[-1]["alpha_high"] == 1.0
        assert [r["model"] for r in regions] == ["m1", "m3"]

    def test_deterministic_json(self, predictions_csv):
        a = analyze(predictions_csv, alphas=(0.3, 0.8), outputs=("points", "curves", "hull"))
        b = analyze(predictions_csv, alphas=(0.3, 0.8), outputs=("points", "curves", "hull"))
        assert a.to_json() == b.to_json()

    def test_json_is_strict(self, predictions_csv):
        report = analyze(predictions_csv, outputs=("points", "curves", "hull", "dominance"))
        text = report.to_json()
        assert "\n" not in text.rstrip("\n")
        parsed = json.loads(text)
        assert parsed["schema_version"] == "1"
        assert parsed["config"]["normalize"] is False

    def test_hull_built_once_for_hull_and_dominance(self, predictions_csv, monkeypatch):
        import rroc.analysis
        import rroc.report

        calls = []
        original = rroc.analysis.convex_hull

        def counting(inputs):
            calls.append(inputs)
            return original(inputs)

        monkeypatch.setattr(rroc.analysis, "convex_hull", counting)
        monkeypatch.setattr(rroc.report, "convex_hull", counting)
        report = decoded(analyze(predictions_csv, outputs=("points", "curves", "hull", "dominance")))
        assert len(calls) == 1
        assert report.hull["points"] and report.dominance

    def test_distinct_vertices_found_once_per_model(self, predictions_csv, monkeypatch):
        import rroc.curve

        calls = []
        original = rroc.curve._distinct_rule

        def counting(over, under):
            calls.append(over.size)
            return original(over, under)

        monkeypatch.setattr(rroc.curve, "_distinct_rule", counting)
        report = analyze(predictions_csv, outputs=OUTPUT_KINDS, alphas=(0.8,))
        report.to_json()
        render_svg(report)
        assert calls == [10, 10, 10]

    def test_no_object_per_hull_point_or_region(self, monkeypatch):
        from rroc import ConvexHull, DominanceMap, DominanceRegion, HullPoint, RrocCurve, RrocPoint
        from rroc.data import Dataset

        rng = np.random.default_rng(7)
        actual = rng.normal(0.0, 1.0, 2000)
        dataset = Dataset(actual, {
            f"m{i}": actual + rng.normal(0.1 * i, 1 + 0.2 * i, actual.size) for i in range(3)
        })
        made = Counter()

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                made[cls.__name__] += 1
                original(self, *args, **kwargs)

            return init

        with monkeypatch.context() as patch:
            for cls in (HullPoint, DominanceRegion, RrocPoint):
                patch.setattr(cls, "__init__", counting(cls))
            columns = run(RunConfig(outputs=("points", "curves", "hull", "dominance"),
                                    reproducible=True), dataset)
            report = decoded(columns)
        assert isinstance(columns.hull, ConvexHull) and isinstance(columns.dominance, DominanceMap)
        assert all(isinstance(entry["curve"], RrocCurve) for entry in columns.models.values())
        assert len(report.hull["points"]) > 1000 and len(report.dominance) > 1000
        assert made["HullPoint"] == 0 and made["DominanceRegion"] == 0
        # The only points made are the models' own (OVER, UNDER) points.
        assert made["RrocPoint"] <= 2 * len(dataset.model_ids)

    def test_models_analyzed_in_order_in_the_callers_thread(self, predictions_csv, monkeypatch):
        import rroc.report

        calls = []
        original = rroc.report._analyze_model

        def recording(model_id, e, config):
            calls.append((model_id, threading.get_ident()))
            return original(model_id, e, config)

        monkeypatch.setattr(rroc.report, "_analyze_model", recording)
        analyze(predictions_csv)
        assert calls == [(m, threading.get_ident()) for m in ("m1", "m2", "m3")]

    def test_none_cost_curve_is_read_off_the_point(self, predictions_csv, errors, monkeypatch):
        import rroc.shift
        from rroc import NoShift, cost_curve, default_alpha_grid, over_under
        from rroc.core import _total_losses

        from .test_curve import shifted_sum_tolerance

        calls = []

        def counting(name):
            original = getattr(rroc.shift, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("cost_curve", "over_under", "over_under_at"):
                patch.setattr(rroc.shift, name, counting(name))
            report = analyze(predictions_csv, outputs=("points", "cost"))
        assert calls == []
        grid = default_alpha_grid()
        for m in ("m1", "m2", "m3"):
            e = errors[m]
            point = over_under(e)
            want = _total_losses(point.over, point.under, grid) / e.size
            got = np.array(report.models[m]["cost_curves"]["none"])
            assert got.tobytes() == want.tobytes()
            # The library reads the same model off the curve, summed in another order.
            tol = 2 * shifted_sum_tolerance(e, [0.0]) / e.size
            assert np.abs(got - cost_curve(e, NoShift(), grid).losses).max() <= tol

    def test_optimal_cost_curve_is_the_optimal_shift_loss(self, predictions_csv, errors):
        from rroc import optimal_constant_shift

        report = analyze(predictions_csv, outputs=("points", "cost"))
        for m in ("m1", "m2", "m3"):
            cc = report.models[m]["cost_curves"]
            want = [optimal_constant_shift(errors[m], a)[1] / errors[m].size for a in cc["alphas"]]
            assert np.array(cc["optimal_constant"]).tobytes() == np.array(want).tobytes()

    def test_unknown_output_rejected(self, predictions_csv):
        with pytest.raises(ConfigError):
            RunConfig(input=str(predictions_csv), outputs=("bogus",))

    def test_alpha_out_of_range_rejected(self, predictions_csv):
        with pytest.raises(ConfigError):
            RunConfig(input=str(predictions_csv), alphas=(1.5,))

    def test_memory_stays_linear_in_n(self):
        # Every output kind at 5,000 and 50,000 rows x 3 models: a stage
        # quadratic in n would push the peak ratio far past 12.
        def peak(n):
            rng = np.random.default_rng(7)
            actual = rng.normal(0.0, 1.0, n)
            dataset = Dataset(actual, {f"m{i}": actual + rng.normal(0.1 * i, 1 + 0.2 * i, n) for i in range(3)})
            config = RunConfig(alphas=(0.2, 0.8), outputs=OUTPUT_KINDS, reproducible=True)
            tracemalloc.start()
            try:
                report = run(config, dataset)
                report.to_json()
                render_svg(report)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) / peak(5_000) <= 12

    @pytest.mark.parametrize("alpha, equal", [
        (Fraction(1, 2), 0.5), (np.float32(0.5), 0.5), (np.int64(1), 1.0), (True, 1.0), (0, 0.0),
    ], ids=["Fraction", "float32", "int64", "True", "int"])
    def test_any_real_alpha_writes_as_the_equal_float(self, alpha, equal):
        dataset = Dataset(np.zeros(3), {"a": [1.0, -2.0, 0.5], "b": [0.5, 0.5, -1.0]})

        def report(a):
            return run(RunConfig(alphas=(0.2, a), reproducible=True), dataset).to_json()

        assert report(alpha) == report(equal)


def reference_json(report):
    """Reference encoder: the report's fields as plain dicts and lists, then one json.dumps.

    The curve, hull and dominance rows are built as the report built them
    before it kept columns.
    """
    scale = float(report.n) if report.config["normalize"] else 1.0
    fields = {k: v for k, v in vars(report).items() if v is not None}
    models = {}
    for model_id, entry in report.models.items():
        entry = dict(entry)
        if "curve" in entry:
            raw = entry["curve"]
            c = normalized_curve(raw) if report.config["normalize"] else raw
            shifts = c.shift.tolist()
            # Each vertex counts the examples with a strictly smaller and a strictly larger shift.
            n_over = [sum(t < s for t in shifts) for s in shifts]
            n_under = [sum(t > s for t in shifts) for s in shifts]
            entry["curve"] = {
                "normalized": c.normalized,
                # Counted on the raw curve, whose distinct vertices the hull indexes.
                "distinct_vertex_count": len(reference_distinct(raw)),
                "vertices": [
                    {"over": o, "under": u, "shift": s, "n_over": a, "n_under": b}
                    for o, u, s, a, b in zip(c.over.tolist(), c.under.tolist(), shifts, n_over, n_under)
                ],
            }
        models[model_id] = entry
    fields["models"] = models
    if report.hull is not None:
        hull = report.hull
        ids = hull.model_ids
        fields["hull"] = {
            "level": "curves" if "curves" in report.config["outputs"] else "points",
            "points": [
                {"over": o, "under": u, "model": ids[r], "vertex_index": None if k < 0 else k}
                for o, u, r, k in zip((hull.over / scale).tolist(), (hull.under / scale).tolist(),
                                      hull.model_rank.tolist(), hull.vertex_index.tolist())
            ],
        }
    if report.dominance is not None:
        dm = report.dominance
        hull, rows = dm.hull, dm.hull_row
        fields["dominance"] = [
            {"alpha_low": low, "alpha_high": high, "model": hull.model_ids[r], "point": {"over": o, "under": u}}
            for low, high, r, o, u in zip(
                dm.alpha_low.tolist(), dm.alpha_high.tolist(), hull.model_rank[rows].tolist(),
                (hull.over[rows] / scale).tolist(), (hull.under[rows] / scale).tolist(),
            )
        ]
    return json.dumps(fields, separators=(",", ":"), allow_nan=False) + "\n"


def assert_same_text(got, want):
    """Assert two report texts are equal; if not, show the first differing offset in context.

    A plain ``==`` on two long texts makes pytest diff them whole, which can
    take minutes; this shows about 80 characters around the first difference.
    """
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    around = slice(max(at - 40, 0), at + 40)
    pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and {len(want)})\n"
                f"  got:  {got[around]!r}\n  want: {want[around]!r}")


# Errors on the quarter lattice tie often; -0.0 - 0.0 keeps its sign.
quarter_or_float = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4), st.just(-0.0), st.floats(-1e3, 1e3),
)
model_id_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x01\x1f\n\t\u00e9\u2028\ufeff\U0001f600'),
                                  st.characters()), min_size=1, max_size=6)


@st.composite
def report_inputs(draw):
    n = draw(st.integers(1, 60))
    ids = draw(st.lists(model_id_text, min_size=1, max_size=4, unique=True))
    predicted = {m: draw(st.lists(quarter_or_float, min_size=n, max_size=n)) for m in ids}
    outputs = draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1, unique=True))
    alphas = draw(st.lists(st.one_of(st.sampled_from([0.0, 1e-320, 1.0]), st.floats(0.0, 1.0)), max_size=3))
    config = RunConfig(alphas=tuple(alphas), outputs=tuple(outputs), normalize=draw(st.booleans()),
                       reproducible=True)
    return config, Dataset(np.zeros(n), predicted)


class TestJsonWriter:
    @given(report_inputs())
    @settings(max_examples=200, deadline=None)
    def test_columns_write_the_reference_bytes(self, inputs):
        config, dataset = inputs
        try:
            report = run(config, dataset)
        except DataError:
            reject()  # the density of a subnormal spread overflows
        assert_same_text(report.to_json(), reference_json(report))

    @pytest.mark.parametrize("column", ["hull.under", "dominance.alpha_high"])
    def test_non_finite_column_raises_the_json_error(self, predictions_csv, column):
        from rroc import ConvexHull, DominanceMap

        report = analyze(predictions_csv, outputs=("points", "curves", "hull", "dominance"), normalize=True)
        with pytest.raises(ValueError) as strict:
            json.dumps(math.nan, allow_nan=False)

        def poisoned(values):
            values = values.astype(float)
            values[1] = math.nan
            return values

        h, d = report.hull, report.dominance
        if column == "hull.under":
            report = replace(report, hull=ConvexHull(h.over, poisoned(h.under), h.model_rank, h.vertex_index,
                                                     h.model_ids))
        else:
            report = replace(report, dominance=DominanceMap(poisoned(d.alpha_high), d.hull_row, h))
        with pytest.raises(ValueError) as got:
            report.to_json()
        assert str(got.value) == str(strict.value)

    @staticmethod
    def crossing_report(normalize):
        """A curve-level report of three models whose curves cross, so the hull mixes them."""
        rng = np.random.default_rng(17)
        actual = rng.normal(0.0, 1.0, 400)
        # Model "b" has quarter-lattice errors: tied curve vertices.
        predicted = {"a": actual + rng.normal(0.2, 1.0, 400),
                     "b": actual + np.round(rng.normal(-0.1, 1.0, 400) * 4) / 4,
                     "c": actual + rng.laplace(0.0, 0.8, 400)}
        config = RunConfig(outputs=("points", "curves", "hull", "dominance"), normalize=normalize,
                           reproducible=True)
        return run(config, Dataset(actual, predicted))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_hull_rows_take_their_curve_vertex_texts(self, normalize, monkeypatch):
        import rroc.report as report_module

        report = self.crossing_report(normalize)
        assert len(set(report.hull.model_rank.tolist())) > 1
        texted = []
        texts = report_module._texts
        monkeypatch.setattr(report_module, "_texts", lambda column: texted.append(column.size) or texts(column))
        assert_same_text(report.to_json(), reference_json(report))
        # Over, under and shift of every vertex and the dominance highs; no hull row is texted again.
        assert sum(texted) == 3 * sum(e["curve"].n for e in report.models.values()) + report.dominance.alpha_high.size

    @pytest.mark.parametrize("normalize", [False, True])
    def test_hull_row_unlike_its_vertex_keeps_its_own_text(self, normalize):
        from rroc import ConvexHull, DominanceMap

        report = self.crossing_report(normalize)
        h, d = report.hull, report.dominance
        over, under = h.over.copy(), h.under.copy()
        # The last hull row is a curve's last vertex, whose under is a zero:
        # the row gets the other zero, equal to it but written differently.
        assert under[-1] == 0.0 and h.vertex_index[-1] >= 0
        under[-1] = -under[-1]
        over[0] = np.nextafter(over[0], math.inf)
        hull = ConvexHull(over, under, h.model_rank, h.vertex_index, h.model_ids)
        report = replace(report, hull=hull, dominance=DominanceMap(d.alpha_high, d.hull_row, hull))
        text = report.to_json()
        assert_same_text(text, reference_json(report))
        hull_text = text[text.index('"hull":'):text.index('"dominance":')]
        model = json.dumps(h.model_ids[h.model_rank[-1]])
        zero = repr(float(under[-1]) / report.axis_scale)
        assert hull_text.endswith(f'"under":{zero},"model":{model},"vertex_index":{h.vertex_index[-1]}}}]}},')


def vertex_rows(curve, normalize=False):
    """The JSON rows that a report holding ``curve`` alone writes for its vertices."""
    report = EvaluationReport("1", "0", {"normalize": normalize}, curve.n, {"m": {"curve": curve}})
    return json.loads(report.to_json())["models"]["m"]["curve"]["vertices"]


class TestJsonCounts:
    """``n_over`` and ``n_under`` of a vertex row count the examples with a
    strictly larger and a strictly smaller error: the boundary one is in neither."""

    def test_boundary_counts_use_strict_inequalities(self, errors):
        for e in errors.values():
            assert all(r["n_over"] + r["n_under"] < e.size for r in vertex_rows(rroc_curve(e)))
        # exactly tied values sit on the boundary together
        rows = vertex_rows(rroc_curve([1.0, 3.0, 3.0, 3.0, 5.0]))
        assert [(r["n_over"], r["n_under"]) for r in rows if r["shift"] == -3.0] == [(1, 1)] * 3

    def test_counts_of_a_hand_built_curve(self):
        curve = RrocCurve([0.0, 1.0, 1.0, 3.0], [-3.0, -1.0, -1.0, 0.0], [-2.0, -1.0, -1.0, 0.0])
        assert curve.n == 4
        assert [(r["n_over"], r["n_under"]) for r in vertex_rows(curve)] == [(0, 3), (1, 1), (1, 1), (3, 0)]

    @given(st.lists(st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.just(-0.0)),
                    min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_counts_match_direct_counts(self, values):
        e = np.asarray(values, dtype=float)
        curve = rroc_curve(e)
        larger = [int(np.count_nonzero(e > -s)) for s in curve.shift.tolist()]
        smaller = [int(np.count_nonzero(e < -s)) for s in curve.shift.tolist()]
        for normalize in (False, True):
            rows = vertex_rows(curve, normalize)
            assert ([r["n_over"] for r in rows], [r["n_under"] for r in rows]) == (larger, smaller)


def dense_error_density(errors, points=256):
    """Reference: error_density as the exact Gaussian kernel sum at every grid point.

    Each grid row sums its own n kernel terms, so memory stays O(n).
    """
    e = np.asarray(errors, dtype=float)
    n = e.size
    q75, q25 = np.percentile(e, [75, 25])
    candidates = [c for c in (float(np.std(e)), (q75 - q25) / 1.34) if c > 0]
    spread = min(candidates) if candidates else 0.0
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        h = max(1e-3 * max(abs(float(e[0])), 1.0), 1e-12)
    xs = np.linspace(e.min() - 3 * h, e.max() + 3 * h, points)
    sums = np.array([np.exp(-0.5 * ((x - e) / h) ** 2).sum() for x in xs])
    return xs, sums / (n * h * np.sqrt(2 * np.pi))


def density_errors(kind):
    """Named error vectors; an int names normal errors of that length."""
    rng = np.random.default_rng(11)
    if isinstance(kind, int):
        return np.random.default_rng(kind).normal(0.3, 2.0, kind)
    return {
        "cauchy-20000": lambda: rng.standard_cauchy(20_000),
        "outlier-1e6": lambda: np.append(rng.normal(0.0, 1.0, 10_000), 1e6),
        "normal-1e4": lambda: rng.normal(0.0, 1.0, 10_000),
        "normal-1e5": lambda: rng.normal(0.0, 1.0, 100_000),
        "lattice": lambda: rng.integers(-3, 4, 20_000).astype(float),
        "two-point": lambda: np.repeat([0.0, 1.0], 5_000),
        "bimodal": lambda: np.concatenate([rng.normal(-3.0, 0.5, 6_000), rng.normal(2.0, 1.0, 4_000)]),
        "uniform": lambda: rng.uniform(-1.0, 1.0, 10_000),
        "scaled-1e150": lambda: rng.normal(0.0, 1.0, 10_000) * 1e150,
        "scaled-1e-300": lambda: rng.normal(0.0, 1.0, 10_000) * 1e-300,
        "offset-1e9": lambda: 1e9 + rng.normal(0.0, 1e-4, 5_000),
    }[kind]()


@pytest.fixture
def fft_calls(monkeypatch):
    """Sizes passed to numpy.fft.rfft while the test runs: the binned path's trace."""
    calls = []
    rfft = np.fft.rfft

    def counting(a, n=None, *args, **kwargs):
        calls.append(n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls


def assert_within_binning_tolerance(got, want):
    """x bit-identical; density non-negative and within 1e-4 of the exact sum's peak."""
    assert np.array_equal(got[0], want[0])
    assert np.min(got[1]) >= 0.0
    assert np.max(np.abs(got[1] - want[1])) <= 1e-4 * np.max(want[1])


class TestErrorDensity:
    # Up to the fine-grid size, on ranges too wide for a grid of 2**16 cells,
    # and where float spacing moves the x values off the fine grid (near 1e9
    # it is 1e-5 of the bandwidth; binning there is off by 4e-4 of the peak),
    # the density is the exact kernel sum, bit for bit.
    @pytest.mark.parametrize("n", [1, 7, 1000, "cauchy-20000", "outlier-1e6", "offset-1e9"])
    def test_bit_identical_to_the_dense_kernel_sum(self, n, fft_calls):
        e = density_errors(n)
        for got, want in zip(error_density(e), dense_error_density(e)):
            assert np.array_equal(got, want)
        assert fft_calls == []

    @pytest.mark.parametrize("kind", [
        5000, "normal-1e4", "normal-1e5", "lattice", "two-point", "bimodal", "uniform",
        "scaled-1e150", "scaled-1e-300",
    ])
    def test_binned_density_within_1e_4_of_the_peak(self, kind, fft_calls):
        e = density_errors(kind)
        assert_within_binning_tolerance(error_density(e), dense_error_density(e))
        assert len(fft_calls) == 2 and max(fft_calls) <= 2**17

    def test_memory_stays_linear_in_n(self):
        e = np.random.default_rng(5).normal(0.0, 1.0, 100_000)
        tracemalloc.start()
        try:
            error_density(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @given(
        n=st.integers(3_000, 12_000),
        scale=st.sampled_from([1e-320, 1e-300, 1.0, 1e150]),
        ties=st.floats(0.0, 0.95),
        outliers=st.integers(0, 3),
        reach=st.sampled_from([10.0, 100.0, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_hostile_inputs_above_the_fine_grid_size(self, n, scale, ties, outliers, reach, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(0.0, 1.0, n)
        tied = int(ties * n)
        e[:tied] = np.round(e[:tied])
        e[rng.choice(n, outliers, replace=False)] = reach * rng.choice([-1.0, 1.0], outliers)
        e *= scale
        # A density beyond the float range is a data error; nothing may warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = error_density(e)
            except DataError as exc:
                assert str(exc) == "the error density overflows to non-finite values; rescale the input"
                return
        with np.errstate(all="ignore"):
            want = dense_error_density(e)
        assert_within_binning_tolerance(got, want)


class TestSynthetic:
    def test_deterministic_under_seed(self):
        a = generate_synthetic(0.0, 0.01, 100, "random", seed=5)
        b = generate_synthetic(0.0, 0.01, 100, "random", seed=5)
        assert np.array_equal(a.actual, b.actual)
        assert np.array_equal(a.predicted["random"], b.predicted["random"])

    def test_constant_mean_model(self):
        ds = generate_synthetic(0.0, 0.01, 50, "constant-mean", seed=1)
        assert np.all(ds.predicted["constant-mean"] == ds.actual.mean())

    def test_single_example_curve_through_heaven(self):
        from rroc import aoc, rroc_curve

        ds = generate_synthetic(0.0, 0.01, 1, "actual-plus-noise", seed=3)
        curve = rroc_curve(ds.errors("actual-plus-noise"))
        assert (curve.over.tolist(), curve.under.tolist()) == ([0.0], [0.0])
        assert aoc(curve) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0.0, 0.01, 10, "oracle", seed=0)


class TestSvg:
    def test_m1_curve_markers(self, tmp_path):
        lines = ["actual,predicted:m1"]
        from tests.conftest import ACTUAL, PREDICTED

        for a, p in zip(ACTUAL, PREDICTED["m1"]):
            lines.append(f"{a},{p}")
        path = tmp_path / "m1.csv"
        path.write_text("\n".join(lines) + "\n")
        report = analyze(path, outputs=("points", "curves"))
        svg = render_svg(report)
        assert svg.count('class="vertex"') == 10
        assert svg.count('class="origin"') == 1
        assert svg.startswith("<svg")

    def test_vertex_markers_follow_the_distinct_vertex_count(self, tmp_path):
        # 0.1 + 0.2 and 0.3 differ by one ulp: one vertex in the report, so
        # one marker in the plot.
        path = tmp_path / "near_tie.csv"
        rows = [0.1 + 0.2, 0.3, 1.0, -2.0, 0.7]
        path.write_text("actual,predicted\n" + "".join(f"0,{p!r}\n" for p in rows))
        report = analyze(path, outputs=("points", "curves"))
        assert decoded(report).models["model"]["curve"]["distinct_vertex_count"] == 4
        assert render_svg(report).count('class="vertex"') == 4

    def test_normalized_count_markers_and_hull_share_the_distinct_vertices(self, tmp_path):
        # Two vertices sit at the tolerance of the deduplication rule: apart
        # on the raw scale, within it once divided by n. They are found on
        # the raw scale once, so all six stay distinct everywhere.
        path = tmp_path / "ties.csv"
        rows = ["1.5e-12", "0.750000000001", "0.25", "-0.249999999999", "-0.2499999999985", "-0.5",
                "0.250000000001"]
        path.write_text("actual,predicted\n" + "".join(f"0,{p}\n" for p in rows))
        json_path, svg_path = tmp_path / "r.json", tmp_path / "r.svg"
        code = main(["analyze", "--input", str(path), "--normalize", "--outputs", "curves,hull",
                     "--json", str(json_path), "--svg", str(svg_path), "--reproducible"])
        assert code == 0
        report = json.loads(json_path.read_text())
        count = report["models"]["model"]["curve"]["distinct_vertex_count"]
        assert count == 6
        assert all(p["vertex_index"] < count for p in report["hull"]["points"])
        assert svg_path.read_text().count('class="vertex"') == count

    def test_points_and_diagonal(self, predictions_csv):
        report = analyze(predictions_csv, outputs=("points",))
        svg = render_svg(report)
        assert svg.count('class="origin"') == 3
        assert svg.count('class="diagonal"') == 1
        assert svg.count('class="vertex"') == 0

    def test_hull_and_isometric_layers(self, predictions_csv):
        report = analyze(
            predictions_csv, outputs=("points", "curves", "hull"), alphas=(0.8,)
        )
        svg = render_svg(report)
        assert svg.count('class="hull"') == 1
        assert svg.count('class="hull-point"') == 12
        assert svg.count('class="isometric"') == 1

    def test_normalized_isometric_touches_best_point(self, predictions_csv):
        import re

        report = analyze(predictions_csv, normalize=True, alphas=(0.8,))
        svg = render_svg(report)
        iso_line = next(l for l in svg.splitlines() if 'class="isometric"' in l)
        coords = [
            tuple(map(float, pair.split(",")))
            for pair in re.search(r'points="([^"]+)"', iso_line).group(1).split()
        ]
        (x0, y0), (x1, y1) = coords[0], coords[-1]
        # the m3 square marker (the alpha=0.8 optimum) must sit on this line
        best = report.models["m3"]["point"]
        marker = next(
            l for l in svg.splitlines() if 'class="origin"' in l and "#2ca02c" in l
        )
        mx = float(re.search(r'x="([-\d.]+)"', marker).group(1)) + 3.5
        my = float(re.search(r'y="([-\d.]+)"', marker).group(1)) + 3.5
        expected_y = y0 + (mx - x0) * (y1 - y0) / (x1 - x0)
        assert my == pytest.approx(expected_y, abs=0.75)
        assert best["over"] == pytest.approx(1.0431, abs=5e-4)

    def test_density_and_cost_panels(self, predictions_csv):
        report = analyze(predictions_csv, outputs=("points", "cost", "density"))
        svg = render_svg(report)
        assert svg.count('class="density"') == 3
        assert svg.count('class="cost-none"') == 3
        assert svg.count('class="cost-optimal"') == 3

    def test_empty_report_rejected(self, predictions_csv):
        report = analyze(predictions_csv, outputs=("points",))
        report.models = {}
        with pytest.raises(DataError):
            render_svg(report)

    def test_document_is_well_formed_xml(self, predictions_csv):
        import xml.etree.ElementTree as ET

        report = analyze(
            predictions_csv,
            outputs=("points", "curves", "hull", "cost", "density"),
            alphas=(0.0, 0.8),
        )
        root = ET.fromstring(render_svg(report))
        assert root.tag.endswith("svg")


class TestCli:
    def test_analyze_writes_outputs(self, predictions_csv, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        svg_path = tmp_path / "plot.svg"
        code = main(
            [
                "analyze",
                "--input", str(predictions_csv),
                "--alpha", "0.8",
                "--outputs", "points,curves,hull,dominance",
                "--json", str(json_path),
                "--svg", str(svg_path),
                "--reproducible",
            ]
        )
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["alpha_queries"][0]["best"] == "m3"
        assert "generated_at" not in report
        assert svg_path.read_text().startswith("<svg")

    def test_stdout_when_no_files_requested(self, predictions_csv, capsys):
        code = main(["analyze", "--input", str(predictions_csv), "--reproducible"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n"] == 10

    def test_byte_identical_reproducible_runs(self, predictions_csv, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert (
                main(
                    [
                        "analyze",
                        "--input", str(predictions_csv),
                        "--alpha", "0.5,0.8",
                        "--json", str(p),
                        "--reproducible",
                    ]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_outputs_is_config_error(self, predictions_csv, capsys):
        code = main(["analyze", "--input", str(predictions_csv), "--outputs", "bogus"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_column_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code = main(["analyze", "--input", str(bad)])
        assert code == 2

    def test_no_partial_outputs_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("actual,predicted\n1.0,oops\n")
        json_path = tmp_path / "report.json"
        code = main(["analyze", "--input", str(bad), "--json", str(json_path)])
        assert code == 3
        assert not json_path.exists()

    def test_no_partial_outputs_when_a_later_target_fails(self, predictions_csv, tmp_path, capsys):
        json_path = tmp_path / "ok.json"
        svg_path = tmp_path / "missing" / "x.svg"
        code = main(
            ["analyze", "--input", str(predictions_csv), "--json", str(json_path), "--svg", str(svg_path)]
        )
        assert code == 3
        assert str(svg_path) in capsys.readouterr().err
        assert not json_path.exists()
        assert list(tmp_path.iterdir()) == [predictions_csv]

    def test_json_and_svg_naming_one_file_is_config_error(self, predictions_csv, tmp_path, capsys):
        same = tmp_path / "same"
        alias = tmp_path / "." / "same"
        code = main(["analyze", "--input", str(predictions_csv), "--json", str(same), "--svg", str(alias)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("rroc: configuration error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [predictions_csv]

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_target_naming_the_input_is_config_error(self, predictions_csv, tmp_path, capsys, flag):
        before = predictions_csv.read_bytes()
        alias = tmp_path / "." / predictions_csv.name
        code = main(["analyze", "--input", str(predictions_csv), flag, str(alias)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("rroc: configuration error: ") and err.count("\n") == 1
        assert "is the input file" in err
        assert list(tmp_path.iterdir()) == [predictions_csv]
        assert predictions_csv.read_bytes() == before

    def test_directory_target_is_data_error(self, predictions_csv, tmp_path, capsys):
        target = tmp_path / "adir"
        target.mkdir()
        json_path = tmp_path / "a.json"
        code = main(["analyze", "--input", str(predictions_csv), "--json", str(json_path), "--svg", str(target)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("rroc: data error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [target, predictions_csv]
        assert list(target.iterdir()) == []

    def test_overflowing_input_exits_with_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("actual,predicted\n0,1.5e308\n0,1.5e308\n")
        code = main(["analyze", "--input", str(path), "--json", str(tmp_path / "r.json")])
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "data", [b"actual,predicted\n1.0,2.0\xff\n", b"actual,predicted\n1.0,2.0,3.0\n"]
    )
    def test_hostile_csv_exits_with_data_error(self, tmp_path, capsys, data):
        path = tmp_path / "hostile.csv"
        path.write_bytes(data)
        code = main(["analyze", "--input", str(path)])
        assert code == 3
        assert "row 1" in capsys.readouterr().err

    def test_synth_round_trip(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(
            [
                "synth",
                "--dist", "normal:0,0.01",
                "--n", "1000",
                "--model", "constant-mean",
                "--seed", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        report_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "analyze",
                    "--input", str(out),
                    "--outputs", "points,curves",
                    "--json", str(report_path),
                    "--reproducible",
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        entry = report["models"]["constant-mean"]
        assert entry["aoc"] == pytest.approx(
            entry["metrics"]["variance"] * 1e6 / 2, rel=1e-9
        )

    def test_bad_distribution_is_config_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--dist", "pareto:1", "--n", "10", "--seed", "0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("n", [str(2**60), str(2**63 - 1), "100000000000000000000000000000"])
    def test_n_beyond_any_array_is_config_error(self, tmp_path, capsys, n):
        # Each n is rejected before anything is drawn: no memory is allocated.
        code = main(["synth", "--n", n, "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: configuration error: n must be at most")
        assert list(tmp_path.iterdir()) == []

    def test_failed_synth_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        import errno

        import rroc.data as data_module

        write_csv = data_module._write_csv

        class FullDisk:
            """Passes the first writes to the staged file, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh, self.calls = fh, 0

            def write(self, text):
                self.calls += 1
                if self.calls > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

        monkeypatch.setattr(data_module, "_write_csv", lambda dataset, fh: write_csv(dataset, FullDisk(fh)))
        out = tmp_path / "x.csv"
        code = main(["synth", "--n", "5000", "--seed", "1", "--out", str(out)])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error: [Errno 28]")
        assert str(out) in lines[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", ["random", "actual-plus-noise", "constant-mean"])
    def test_synth_overflow_is_one_data_error_line(self, tmp_path, model):
        # sigma 1e308 draws values, sums and a mean beyond the float range.
        argv = ["synth", "--n", "1000", "--seed", "1", "--dist", "normal:0,1e308", "--model", model,
                "--out", str(tmp_path / "x.csv")]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code == 3
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error:")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["synth", "--n", "10", "--seed", "-1", "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: configuration error:")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def analyze_in_a_new_interpreter(*args):
        """``rroc analyze`` run by a separate interpreter, so a numpy warning reaches its stderr."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "rroc.cli", "analyze", *args],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_overflowing_errors_exit_with_one_data_error_line(self, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("actual,predicted\n1e308,-1e308\n-1e308,1e308\n")
        proc = self.analyze_in_a_new_interpreter("--input", str(path))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error:")

    def test_hull_slope_beyond_the_float_range_warns_nothing(self, tmp_path):
        # The hull segment from (0, -1e150) to (1e-300, 0) has a slope of
        # 1e450, an inf float, so the boundary alpha is 1/(1+inf) = 0.0.
        path = tmp_path / "steep.csv"
        path.write_text("actual,predicted:a,predicted:c\n0,-1e150,1e-300\n")
        proc = self.analyze_in_a_new_interpreter("--input", str(path), "--outputs", "points,hull,dominance")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [r["alpha_high"] for r in json.loads(proc.stdout)["dominance"]] == [0.0, 1.0]

    def test_overflowing_curve_names_the_model(self, tmp_path, capsys):
        # Every error sum overflows before any curve coordinate does.
        path = tmp_path / "overflow.csv"
        path.write_text("actual,predicted\n0,1e308\n0,-1e308\n")
        code = main(["analyze", "--input", str(path), "--json", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "rroc: data error: model 'model': error sums overflow to non-finite values; rescale the input"
        ]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("text", ["actual,predicted\n1,{big}\n", "actual,predicted{big}\n1,2\n"],
                             ids=["row", "header"])
    def test_cell_over_the_csv_field_limit_is_one_data_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "big.csv"
        path.write_text(text.format(big="9" * 140_000))
        code = main(["analyze", "--input", str(path), "--json", str(tmp_path / "r.json")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error:")
        assert not (tmp_path / "r.json").exists()

    def test_density_overflow_is_one_data_error_line(self, tmp_path, capsys):
        # Errors 1e-320 apart give a kernel density beyond the float range.
        path = tmp_path / "narrow.csv"
        path.write_text("actual,predicted\n0,0\n0,1e-320\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--input", str(path), "--outputs", "points,density",
                         "--json", str(tmp_path / "r.json")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error:")
        assert list(tmp_path.iterdir()) == [path]

    def test_large_subnormal_spread_is_one_data_error_line(self, tmp_path, capsys):
        # 5,000 rows, above the density's fine-grid size, with errors 1e-320
        # apart: the density overflows whichever path computes it.
        path = tmp_path / "narrow.csv"
        path.write_text("actual,predicted\n" + "".join(f"0,{i * 1e-320!r}\n" for i in range(5_000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--input", str(path), "--outputs", "points,density",
                         "--json", str(tmp_path / "r.json"), "--svg", str(tmp_path / "p.svg")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error:")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("rows, alpha", [
        (["1,1.5", "2,1", "3,3"], "1e-320"),   # the slope (1-a)/a overflows
        (["0,3e10", "0,-1", "0,0"], "1e-300"),  # slope * OVER overflows
    ])
    def test_alpha_too_small_for_a_finite_isometric(self, tmp_path, rows, alpha):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(["actual,predicted", *rows]) + "\n")
        json_path, svg_path = tmp_path / "r.json", tmp_path / "p.svg"
        code = main(["analyze", "--input", str(path), "--alpha", alpha,
                     "--json", str(json_path), "--svg", str(svg_path)])
        assert code == 0
        report = json.loads(json_path.read_text(), parse_constant=_reject_constant)
        (query,) = report["alpha_queries"]
        assert query["isometric"]["slope"] is None
        assert query["isometric"]["intercept"] is None
        assert 'class="isometric"' in svg_path.read_text()

    def test_predicted_after_its_named_twin_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "twins.csv"
        path.write_text("actual,predicted:model,predicted\n1,2,3\n")
        assert main(["analyze", "--input", str(path)]) == 2
        assert "duplicate model id 'model'" in capsys.readouterr().err

    def test_repeated_actual_column_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "twins.csv"
        path.write_text("actual,predicted,actual\n1,2,5\n2,3,7\n")
        assert main(["analyze", "--input", str(path)]) == 2
        assert "duplicate column 'actual'" in capsys.readouterr().err

    @pytest.mark.parametrize("model_id", [
        "a\x01b",
        pytest.param("a\x00b", marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="the csv module reads NUL from Python 3.11 on")),
    ])
    def test_control_character_in_a_model_id(self, tmp_path, capsys, model_id):
        path = tmp_path / "in.csv"
        path.write_text(f"actual,predicted:{model_id}\n1,2\n2,1.5\n3,3.5\n", encoding="utf-8")
        json_path, svg_path = tmp_path / "r.json", tmp_path / "p.svg"
        code = main(["analyze", "--input", str(path), "--json", str(json_path), "--svg", str(svg_path)])
        assert code == 0
        assert list(json.loads(json_path.read_text(encoding="utf-8"))["models"]) == [model_id]
        legend = [t.text for t in ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert "a\ufffdb" in legend

    @pytest.mark.parametrize("command, target", [
        (["synth", "--n", "1000000000000", "--seed", "1"], "generate_synthetic"),
        (["analyze"], "run"),
    ])
    def test_out_of_memory_is_one_data_error_line(self, predictions_csv, tmp_path, monkeypatch, capsys,
                                                  command, target):
        import rroc.cli as cli_module

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, target, exhausted)
        out = tmp_path / "out"
        out.mkdir()
        argv = command + (["--out", str(out / "x.csv")] if command[0] == "synth" else
                          ["--input", str(predictions_csv), "--json", str(out / "r.json"),
                           "--svg", str(out / "p.svg")])
        assert main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rroc: data error: out of memory")
        assert list(out.iterdir()) == []

    def test_internal_failure_maps_to_exit_4(self, predictions_csv, monkeypatch, capsys):
        from rroc import RrocError
        import rroc.cli as cli_module

        def boom(config):
            raise RrocError("invariant violated")

        monkeypatch.setattr(cli_module, "run", boom)
        code = main(["analyze", "--input", str(predictions_csv)])
        assert code == 4
        assert "internal error" in capsys.readouterr().err


# CSV bytes built to break the loader: header variants, hostile numbers,
# empty and extra cells, stray quotes and bytes that are not UTF-8. Half the
# files are well formed apart from extreme numbers, so the success path runs.
PREDICTED_CELLS = ["predicted", "predicted:a", "predicted:b", "other"]
HEADER_CELLS = PREDICTED_CELLS + ["actual", "predicted:", "Actual", " actual", "\ufeffactual", ""]
NUMBER_CELLS = ["1e308", "-1e308", "1e-320", "5e-324", "-0.0", "0", " 2 ", "1_0"]
HOSTILE_CELLS = ["", "nan", "inf", "-inf", "abc", '"1"', '"', "1,5"]
number_text = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(NUMBER_CELLS),
)
cell_text = st.one_of(number_text, st.sampled_from(HOSTILE_CELLS), st.floats().map(repr))


@st.composite
def hostile_csv(draw):
    if draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(PREDICTED_CELLS), min_size=1, max_size=3, unique=True))
        header.insert(draw(st.integers(0, len(header))), "actual")
        rows = draw(st.lists(
            st.lists(number_text, min_size=len(header), max_size=len(header)), min_size=1, max_size=6))
        junk = b""
    else:
        header = draw(st.lists(st.sampled_from(HEADER_CELLS), max_size=4))
        rows = draw(st.lists(
            st.lists(cell_text, min_size=max(0, len(header) - 1), max_size=len(header) + 1), max_size=6))
        junk = draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\x00"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    data = eol.join(",".join(cells) for cells in [header, *rows]).encode("utf-8")
    if draw(st.booleans()):
        data += eol.encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + junk + data[at:]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestCliFuzz:
    @given(hostile_csv(), st.booleans(), st.one_of(st.floats(0, 1), st.sampled_from([0.0, 5e-324, 1e-320, 1.0])))
    @settings(max_examples=150, deadline=None)
    def test_contract_holds_on_hostile_csv(self, data, normalize, alpha):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            source, json_path, svg_path = work / "in.csv", work / "r.json", work / "p.svg"
            source.write_bytes(data)
            argv = ["analyze", "--input", str(source), "--outputs", ",".join(OUTPUT_KINDS),
                    "--alpha", f"0,0.3,1,{alpha!r}", "--json", str(json_path), "--svg", str(svg_path)]
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv + (["--normalize"] if normalize else []))
            assert [str(w.message) for w in caught] == []
            assert code in (0, 2, 3)
            assert not list(work.glob("*.tmp"))
            if code == 0:
                assert stderr.getvalue() == ""
                json.loads(json_path.read_text(), parse_constant=_reject_constant)
                svg = svg_path.read_text()
                assert svg.startswith("<svg")
                ET.fromstring(svg)
            else:
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("rroc: ")
                assert not json_path.exists() and not svg_path.exists()


# argv for both subcommands, each value given as --flag=value so that one
# starting with "-" stays a value. Each value is drawn valid or hostile, about
# half and half, so every exit code is reached. Paths are written under "{w}",
# the work directory, which holds a valid in.csv and an empty directory adir;
# hostile paths are missing, directories, or one file under two names. No --n
# is drawn between 300 and np.intp's maximum: such sizes allocate real memory.
ARGV_CSV = b"actual,predicted:a,predicted:b\n0.5,0.25,1.0\n-1.0,-0.5,2.0\n2.0,2.5,-1.0\n"
ARGV_PATHS = ["{w}/in.csv", "{w}/./in.csv", "{w}/out.json", "{w}/./out.json", "{w}/out.svg",
              "{w}/adir", "{w}/missing/x.out", "{w}/absent.csv"]
alpha_cell = st.one_of(st.floats().map(repr),
                       st.sampled_from(["", "0", "1", "-0.0", "5e-324", "1e-320", "nan", "inf", "x", " 0.3 "]))
dist_param = st.one_of(st.floats().map(repr), st.sampled_from(["0", "1e308", "-1e308", "5e-324", "x", ""]))
target_path = st.one_of(st.sampled_from(["{w}/out.json", "{w}/out.svg"]), st.sampled_from(ARGV_PATHS))
FLAG_VALUES = {
    "--input": st.sampled_from(["{w}/in.csv", "{w}/absent.csv", "{w}/adir"]),
    "--alpha": st.one_of(st.lists(st.floats(0, 1).map(repr), max_size=3),
                         st.lists(alpha_cell, max_size=3)).map(",".join),
    "--outputs": st.one_of(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1, unique=True),
                           st.lists(st.sampled_from([*OUTPUT_KINDS, "", " hull ", "bogus"]), max_size=4)
                           ).map(",".join),
    "--json": target_path,
    "--svg": target_path,
    "--dist": st.one_of(st.tuples(st.floats(-1e3, 1e3), st.floats(0, 1e3)).map(lambda p: f"normal:{p[0]!r},{p[1]!r}"),
                        st.tuples(dist_param, dist_param).map(lambda p: f"normal:{p[0]},{p[1]}")
                        | st.sampled_from(["normal", "normal:", "normal:1", "normal:0,1,2", "pareto:1", ""])),
    "--n": st.one_of(st.integers(1, 300).map(str),
                     st.integers(-2, 0).map(str) | st.integers(np.iinfo(np.intp).max, 10**30).map(str)
                     | st.sampled_from(["x", "1.5", ""])),
    "--seed": st.one_of(st.integers(0, 2**70).map(str), st.sampled_from(["-1", "x", ""])),
    "--model": st.one_of(st.sampled_from(MODEL_KINDS), st.sampled_from(["", "bogus"])),
    "--out": target_path,
}
# Each subcommand's (required, optional) value flags.
SUBCOMMAND_FLAGS = {"analyze": (("--input",), ("--alpha", "--outputs", "--json", "--svg")),
                    "synth": (("--n", "--seed", "--out"), ("--dist", "--model"))}


@st.composite
def cli_argv(draw):
    """An argv template for ``analyze`` or ``synth``; optional flags may be left out."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    required, optional = SUBCOMMAND_FLAGS[command]
    argv = [command] + [f"{flag}={draw(FLAG_VALUES[flag])}" for flag in required]
    for flag in optional:
        value = draw(st.none() | FLAG_VALUES[flag])
        argv += [] if value is None else [f"{flag}={value}"]
    if command == "analyze":
        argv += [flag for flag in ("--normalize", "--reproducible") if draw(st.booleans())]
    return argv


def _tree(work: Path):
    return {str(p): p.read_bytes() if p.is_file() else None for p in work.rglob("*")}


class TestCliArgvFuzz:
    @given(cli_argv())
    @example(["synth", "--n=10", "--seed=1", "--dist=normal:0,1e308", "--out={w}/out.json"])
    @example(["analyze", "--input={w}/in.csv", "--json={w}/in.csv"])
    @example(["synth", "--n=300", "--seed=2", "--model=random", "--out={w}/./in.csv"])
    @example(["synth", "--n=5", "--seed=0", "--out={w}/adir"])
    @settings(max_examples=500, deadline=None)
    def test_contract_holds_on_any_argv(self, template):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "in.csv").write_bytes(ARGV_CSV)
            (work / "adir").mkdir()
            argv = [arg.replace("{w}", tmp) for arg in template]
            targets = {os.path.normpath(arg.split("=", 1)[1]) for arg in argv
                       if arg.startswith(("--json=", "--svg=", "--out="))}
            before = _tree(work)
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    code, by_argparse = main(argv), False
                except SystemExit as exc:
                    code, by_argparse = exc.code, True
            after = _tree(work)
            lines = stderr.getvalue().splitlines()
            assert [str(w.message) for w in caught] == []
            assert not list(work.rglob("*.tmp"))
            if by_argparse:
                # argparse's own rejection: its usage lines, then one error line.
                assert code == 2 and re.match(r"rroc \w+: error: ", lines[-1])
                assert after == before
            elif code == 0:
                assert lines == []
                changed = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
                assert changed <= targets
                assert all(after.get(t) is not None for t in targets)
                if not targets:
                    json.loads(stdout.getvalue(), parse_constant=_reject_constant)
            else:
                assert code in (2, 3, 4)
                assert len(lines) == 1 and lines[0].startswith("rroc: ")
                assert after == before
