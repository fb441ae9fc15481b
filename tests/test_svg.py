import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rroc import RunConfig, render_svg, run
from rroc.data import Dataset
from rroc.svg import MARKER_LIMIT, m4_indices


ALL_OUTPUTS = ("points", "curves", "hull", "dominance", "cost", "density")

# x-monotone polylines in pixel units: up to 200 points over 30 pixel
# columns, so some columns hold many points and some few; y values from a
# small lattice repeat.
pixel_polylines = st.lists(
    st.tuples(st.floats(0.0, 30.0), st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))),
    max_size=200,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def synthetic_dataset(n: int, models: int, seed: int = 7) -> Dataset:
    rng = np.random.default_rng(seed)
    actual = rng.normal(0.0, 1.0, n)
    return Dataset(actual, {
        f"m{i}": actual + rng.normal(0.1 * i, 1 + 0.2 * i, n) for i in range(models)
    })


class TestM4:
    @given(pixel_polylines)
    @settings(max_examples=300, deadline=None)
    def test_each_column_keeps_its_first_last_min_and_max(self, pts):
        px = np.array([x for x, _ in pts])
        y = np.array([v for _, v in pts])
        keep = m4_indices(px, y).tolist()
        assert keep == sorted(set(keep))
        for column in {math.floor(x) for x, _ in pts}:
            full = [p for p in pts if math.floor(p[0]) == column]
            kept = [pts[k] for k in keep if math.floor(pts[k][0]) == column]
            assert (kept[0], kept[-1]) == (full[0], full[-1])
            assert min(v for _, v in kept) == min(v for _, v in full)
            assert max(v for _, v in kept) == max(v for _, v in full)
            assert len(kept) <= 4
            if len(full) <= 4:
                assert kept == full

    @given(st.lists(st.integers(0, 50), max_size=60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_at_most_four_points_per_column_come_back_unchanged(self, columns, data):
        columns = sorted(c for c in columns if columns.count(c) <= 4)
        px = np.array([c + data.draw(st.floats(0.0, 0.999)) for c in columns])
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(px), max_size=len(px))))
        assert m4_indices(px, y).tolist() == list(range(len(px)))


class TestRenderedBytes:
    def test_small_reports_draw_the_same_bytes(self, predictions_csv, tmp_path):
        # The first and last digests are of the documents drawn before
        # pixel-resolution polylines and the marker limit: small reports must
        # not change.
        report = run(RunConfig(input=str(predictions_csv), outputs=ALL_OUTPUTS,
                               alphas=(0.0, 0.8), reproducible=True))
        assert sha256(render_svg(report)) == (
            "7775568dd3e45dd8c613e48062e0914962eeafeaf5b0a773b18b7ef3b6b754bd"
        )
        # Under --normalize the report divides its raw curves as it draws them.
        report = run(RunConfig(input=str(predictions_csv), outputs=ALL_OUTPUTS,
                               alphas=(0.0, 0.8), normalize=True, reproducible=True))
        assert sha256(render_svg(report)) == (
            "7df7e96fcd42efba3d61fe152a141242843b5c1260ebaa2ce6ca1857be062885"
        )
        path = tmp_path / "near_tie.csv"
        rows = [0.1 + 0.2, 0.3, 1.0, -2.0, 0.7]
        path.write_text("actual,predicted\n" + "".join(f"0,{p!r}\n" for p in rows))
        report = run(RunConfig(input=str(path), outputs=("points", "curves"), reproducible=True))
        assert sha256(render_svg(report)) == (
            "9199d033430a0d6c59f9223a671b4318124ab98b9ebfc1aa997eb25d88d8c9f1"
        )

    def test_large_report_stays_under_a_megabyte(self):
        report = run(RunConfig(reproducible=True), synthetic_dataset(20_000, 3))
        svg = render_svg(report)
        assert len(svg.encode("utf-8")) < 1_000_000
        assert svg.count('class="curve"') == 3 and svg.count('class="hull"') == 1
        assert svg.count('class="vertex"') == 0 and svg.count('class="hull-point"') == 0

    @pytest.mark.parametrize("n, markers", [(MARKER_LIMIT, MARKER_LIMIT), (MARKER_LIMIT + 1, 0)])
    def test_vertex_markers_up_to_the_limit(self, n, markers):
        report = run(RunConfig(outputs=("points", "curves"), reproducible=True),
                     synthetic_dataset(n, 1))
        assert json.loads(report.to_json())["models"]["m0"]["curve"]["distinct_vertex_count"] == n
        assert render_svg(report).count('class="vertex"') == markers
