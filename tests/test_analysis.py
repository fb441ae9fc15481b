import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rroc import (
    DataError,
    RrocCurve,
    RrocPoint,
    best_point_for_alpha,
    convex_hull,
    dominance_map,
    hybrid_segment,
    isometric_through,
    optimal_constant_shift,
    over_under,
    rroc_curve,
    total_loss,
)
from rroc.analysis import COLLINEAR_EPS
from rroc.core import _total_losses
from rroc.curve import _optimal_vertices

from .test_curve import lattice_errors, tied_errors

# Exact crossover of the m1 and m3 points: 1 / (1 + 4.461/7.862).
CROSSOVER_M1_M3 = 7.862 / 12.323


class TestIsometric:
    def test_through_m3_at_08(self, points):
        iso = isometric_through(points["m3"], 0.8)
        assert iso.slope == pytest.approx(0.25, abs=5e-4)
        assert iso.intercept == pytest.approx(-3.82275, abs=5e-4)
        assert iso.level == pytest.approx(6.1164, abs=5e-4)

    def test_symmetric_alpha_has_unit_slope(self, points):
        assert isometric_through(points["m1"], 0.5).slope == 1.0

    def test_through_heaven(self):
        iso = isometric_through(RrocPoint(0.0, 0.0), 0.3)
        assert iso.intercept == 0.0
        assert iso.level == 0.0

    def test_alpha_zero_is_vertical(self, points):
        iso = isometric_through(points["m1"], 0.0)
        assert iso.slope == math.inf
        assert iso.intercept is None
        assert iso.level == pytest.approx(2 * points["m1"].over)

    def test_alpha_too_small_for_a_finite_line_is_vertical(self, points):
        # At 1e-320 the slope (1-a)/a overflows; at 1e-300 it is finite but
        # slope * over overflows once over is about 3e10.
        for point, a in ((points["m1"], 1e-320), (RrocPoint(3e10, -1.0), 1e-300)):
            iso = isometric_through(point, a)
            assert iso.slope == math.inf
            assert iso.intercept is None
            assert iso.level == total_loss(point, a)
        finite = isometric_through(points["m1"], 1e-300)
        assert finite.slope == (1.0 - 1e-300) / 1e-300
        assert math.isfinite(finite.intercept)

    def test_points_on_line_share_the_level(self, points):
        iso = isometric_through(points["m3"], 0.8)
        x = 3.7
        on_line = RrocPoint(x, iso.slope * x + iso.intercept)
        assert total_loss(on_line, 0.8) == pytest.approx(iso.level, rel=1e-12)


class TestBestPoint:
    def test_m3_wins_at_08(self, points):
        best, loss = best_point_for_alpha(list(points.values()), 0.8)
        assert best == points["m3"]
        assert loss == pytest.approx(6.1164, abs=5e-4)

    def test_singleton(self, points):
        best, _ = best_point_for_alpha([points["m2"]], 0.4)
        assert best == points["m2"]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            best_point_for_alpha([], 0.5)

    def test_exact_tie_broken_to_lower_over(self):
        a, b = RrocPoint(1.0, -2.0), RrocPoint(2.0, -1.0)
        best, loss = best_point_for_alpha([b, a], 0.5)
        assert best == a
        assert loss == total_loss(b, 0.5)

    def test_near_crossover_losses_agree(self, points):
        l1 = total_loss(points["m1"], CROSSOVER_M1_M3)
        l3 = total_loss(points["m3"], CROSSOVER_M1_M3)
        assert l1 == pytest.approx(l3, rel=1e-12)
        # at the rounded alpha 0.638 the tie resolves strictly to m3
        best, _ = best_point_for_alpha([points["m1"], points["m3"]], 0.638)
        assert best == points["m3"]

    def test_matches_sliding_isometric_characterization(self, points):
        # the loss argmin is the point whose isometric has the highest intercept
        for alpha in [0.2, 0.5, 0.638, 0.8, 0.95]:
            best, _ = best_point_for_alpha(list(points.values()), alpha)
            intercepts = {m: isometric_through(p, alpha).intercept for m, p in points.items()}
            top = max(intercepts.values())
            assert isometric_through(best, alpha).intercept == pytest.approx(top, rel=1e-12)


def reference_best_point(points, alpha):
    """The min-over-keys selection that best_point_for_alpha replaced."""
    def key(p):
        return (total_loss(p, alpha), p.over, abs(p.under))

    best = min(points, key=key)
    return best, total_loss(best, alpha)


tie_prone_points = st.lists(
    st.builds(RrocPoint, st.integers(0, 4).map(float), st.integers(-4, 0).map(float)),
    min_size=1, max_size=8,
)


class TestBestPointAgainstReference:
    @given(tie_prone_points, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_min_over_keys(self, points, grid_alpha, alpha):
        # Small integer coordinates repeat points and, at quarter alphas,
        # give exact loss ties between different points.
        points = points + [RrocPoint(p.over, p.under) for p in points[::2]]
        for a in (grid_alpha, alpha):
            got, loss = best_point_for_alpha(points, a)
            want, want_loss = reference_best_point(points, a)
            assert got is want
            assert loss == want_loss


def best_vertex(curve, alpha):
    """Index and total loss of the vertex that the optimal-vertex rule picks at one alpha."""
    index, loss = _optimal_vertices(curve, [alpha])
    return int(index[0]), float(loss[0])


class TestBestVertex:
    def test_alpha_zero_picks_first_vertex(self, errors):
        curve = rroc_curve(errors["m1"])
        k, loss = best_vertex(curve, 0.0)
        assert curve.over[k] == 0.0
        assert loss == 0.0

    def test_alpha_one_picks_last_vertex(self, errors):
        curve = rroc_curve(errors["m1"])
        k, loss = best_vertex(curve, 1.0)
        assert curve.under[k] == 0.0
        assert loss == 0.0

    def test_matches_optimal_shift_loss(self, errors):
        # The loss of the picked vertex is the least total loss of any vertex.
        e = errors["m1"]
        curve = rroc_curve(e)
        for alpha in np.linspace(0, 1, 21):
            _, shift_loss = optimal_constant_shift(e, float(alpha))
            vertex_min = min(total_loss(RrocPoint(o, u), float(alpha))
                             for o, u in zip(curve.over.tolist(), curve.under.tolist()))
            assert shift_loss == pytest.approx(vertex_min, rel=1e-12, abs=1e-12)

    @given(tied_errors, st.integers(0, 8))
    @example(np.array([0, 0.25, -0.5, 0.25, 0.5, -0.25, 0, 1]), 1)
    @settings(max_examples=300, deadline=None)
    def test_names_the_optimal_constant_shift_vertex(self, e, eighths):
        # Quarter-lattice errors at alphas in steps of 1/8 give exact loss
        # ties between distinct vertices. Of the vertices of least loss the
        # optimal shift is the one of smallest |shift|, then the positive one.
        alpha = eighths / 8
        curve = rroc_curve(e)
        losses = _total_losses(curve.over, curve.under, alpha)
        tied = curve.shift[losses == losses.min()].tolist()
        want = min(tied, key=lambda s: (abs(s), -s))
        assert optimal_constant_shift(e, alpha) == (want, losses.min())

    def test_bracketing_segment_slopes(self, errors):
        e = errors["m1"]
        curve = rroc_curve(e)
        n = curve.n
        for alpha in [0.13, 0.34, 0.52, 0.77, 0.99]:
            index, _ = best_vertex(curve, alpha)
            k = index + 1  # vertex k sits between segments k, k+1
            iso_slope = (1 - alpha) / alpha
            slope_before = math.inf if k == 1 else (n + 1 - k) / (k - 1)
            slope_after = (n - k) / k
            assert slope_after <= iso_slope <= slope_before


class TestHybridSegment:
    def test_m1_m3(self, points):
        seg = hybrid_segment(points["m1"], points["m3"])
        assert seg.slope == pytest.approx(0.567, abs=5e-3)
        assert seg.crossover_alpha == pytest.approx(0.638, abs=5e-3)
        assert seg.crossover_loss == pytest.approx(4.551, abs=5e-3)

    def test_crossover_equalizes_total_loss(self, points):
        seg = hybrid_segment(points["m1"], points["m3"])
        la = total_loss(points["m1"], seg.crossover_alpha)
        lb = total_loss(points["m3"], seg.crossover_alpha)
        assert la == pytest.approx(lb, rel=1e-9)
        assert seg.crossover_loss == pytest.approx(la / 2.0, rel=1e-9)

    def test_symmetry(self, points):
        ab = hybrid_segment(points["m1"], points["m3"])
        ba = hybrid_segment(points["m3"], points["m1"])
        assert ab.slope == ba.slope
        assert ab.crossover_alpha == ba.crossover_alpha

    def test_unit_slope_crosses_at_half(self):
        seg = hybrid_segment(RrocPoint(1.0, -3.0), RrocPoint(2.0, -2.0))
        assert seg.slope == 1.0
        assert seg.crossover_alpha == 0.5

    def test_vertical_segment_flagged(self):
        seg = hybrid_segment(RrocPoint(1.0, -3.0), RrocPoint(1.0, -1.0))
        assert seg.is_vertical
        assert seg.crossover_alpha == 0.0

    def test_horizontal_segment_crosses_at_one(self):
        seg = hybrid_segment(RrocPoint(1.0, -2.0), RrocPoint(3.0, -2.0))
        assert seg.slope == 0.0
        assert seg.crossover_alpha == 1.0

    def test_identical_endpoints_rejected(self, points):
        with pytest.raises(DataError):
            hybrid_segment(points["m1"], points["m1"])


class TestConvexHull:
    def test_point_level_excludes_m2(self, points):
        hull = convex_hull(points)
        ids = [hp.model_id for hp in hull.finite_points]
        assert ids == ["m1", "m3"]

    def test_curve_level_has_twelve_points(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        hull = convex_hull(curves)
        finite = hull.finite_points
        assert len(finite) == 12
        assert Counter(hp.model_id for hp in finite) == {"m1": 6, "m3": 3, "m2": 3}
        overs = [hp.point.over for hp in finite]
        assert overs == sorted(overs)

    def test_single_point(self, points):
        hull = convex_hull({"m1": points["m1"]})
        assert [hp.model_id for hp in hull.finite_points] == ["m1"]

    def test_collinear_points_retained(self):
        pts = {
            "a": RrocPoint(0.0, -4.0),
            "b": RrocPoint(1.0, -3.0),  # exactly on the a-c segment
            "c": RrocPoint(2.0, -2.0),
        }
        hull = convex_hull(pts)
        assert [hp.model_id for hp in hull.finite_points] == ["a", "b", "c"]

    def test_hull_slopes_nonincreasing(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        finite = convex_hull(curves).finite_points
        slopes = []
        for a, b in zip(finite, finite[1:]):
            slopes.append((b.point.under - a.point.under) / (b.point.over - a.point.over))
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-12 * max(abs(s0), 1.0)

    def test_hull_optimality_on_dense_grid(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        hull_coords = {
            (hp.point.over, hp.point.under) for hp in convex_hull(curves).finite_points
        }
        candidates = [
            RrocPoint(float(c.over[k]), float(c.under[k]))
            for c in curves.values()
            for k in c.distinct_vertices()
        ]
        for alpha in np.linspace(0.0, 1.0, 201):
            best, _ = best_point_for_alpha(candidates, float(alpha))
            assert (best.over, best.under) in hull_coords

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            convex_hull({})

    @pytest.mark.parametrize(
        "over, under",
        [
            ([0.0, math.inf], [-1.0, 0.0]),
            ([0.0, math.nan], [-1.0, 0.0]),
            ([0.0, 1.0], [-1.0, 0.5]),
            ([-1.0, 1.0], [-1.0, 0.0]),
            ([], []),
        ],
        ids=["infinite", "nan", "positive-under", "negative-over", "empty"],
    )
    def test_invalid_curve_vertices_rejected_by_model(self, over, under):
        with pytest.raises(DataError, match="'bad'"):
            RrocCurve(over, under, [0] * len(over), model_id="bad")

    def test_columns_and_cached_views(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        hull = convex_hull(curves)
        finite = hull.finite_points
        assert finite is hull.finite_points
        assert hull.over.tolist() == [hp.point.over for hp in finite]
        assert hull.under.tolist() == [hp.point.under for hp in finite]
        assert [hull.model_ids[r] for r in hull.model_rank.tolist()] == [hp.model_id for hp in finite]
        assert hull.vertex_index.tolist() == [hp.vertex_index for hp in finite]
        assert not hull.over.flags.writeable
        point_hull = convex_hull({"a": RrocPoint(1.0, -2.0)})
        assert point_hull.vertex_index.tolist() == [-1]
        assert point_hull.finite_points[0].vertex_index is None
        dm = dominance_map(hull)
        assert dm.regions is dm.regions
        assert dm.alpha_low.tolist() == [r.alpha_low for r in dm.regions]
        assert dm.alpha_high.tolist() == [r.alpha_high for r in dm.regions]
        assert [finite[k].point for k in dm.hull_row.tolist()] == [r.point for r in dm.regions]


class TestDominance:
    def test_two_points_split_at_crossover(self, points):
        dm = dominance_map({"m1": points["m1"], "m3": points["m3"]})
        assert [r.model_id for r in dm.regions] == ["m1", "m3"]
        assert dm.regions[0].alpha_low == 0.0
        assert dm.regions[0].alpha_high == pytest.approx(0.638, abs=5e-3)
        assert dm.regions[1].alpha_high == 1.0
        # the boundary belongs to the lower-alpha region
        boundary = dm.regions[0].alpha_high
        assert dm.model_at(boundary).model_id == "m1"

    def test_single_model_owns_everything(self, points):
        dm = dominance_map({"m2": points["m2"]})
        assert len(dm.regions) == 1
        assert dm.regions[0].alpha_low == 0.0 and dm.regions[0].alpha_high == 1.0
        assert dm.model_at(0.0).model_id == "m2"
        assert dm.model_at(1.0).model_id == "m2"

    def test_boundaries_are_hull_crossovers(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        finite = convex_hull(curves).finite_points
        crossovers = [
            hybrid_segment(a.point, b.point).crossover_alpha
            for a, b in zip(finite, finite[1:])
        ]
        dm = dominance_map(curves)
        bounds = [r.alpha_high for r in dm.regions[:-1]]
        for b in bounds:
            assert any(abs(b - c) < 1e-12 for c in crossovers)
        assert dm.regions[-1].alpha_high == 1.0

    def test_agrees_with_best_point(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        dm = dominance_map(curves)
        candidates = {
            m: [RrocPoint(float(c.over[k]), float(c.under[k])) for k in c.distinct_vertices()]
            for m, c in curves.items()
        }
        flat = [(m, p) for m, pts in candidates.items() for p in pts]
        bounds = {r.alpha_high for r in dm.regions} | {r.alpha_low for r in dm.regions}
        for alpha in np.linspace(0.0, 1.0, 101):
            a = float(alpha)
            if any(abs(a - b) < 1e-9 for b in bounds):
                continue  # exact boundaries tie by construction
            best, best_loss = best_point_for_alpha([p for _, p in flat], a)
            winners = {m for m, p in flat if total_loss(p, a) == best_loss}
            assert dm.model_at(a).model_id in winners

    def test_regions_partition_unit_interval(self, errors):
        curves = {m: rroc_curve(errors[m], m) for m in ("m1", "m2", "m3")}
        regions = dominance_map(curves).regions
        assert regions[0].alpha_low == 0.0
        assert regions[-1].alpha_high == 1.0
        for a, b in zip(regions, regions[1:]):
            assert b.alpha_low == a.alpha_high
            assert b.alpha_high > b.alpha_low


# Reference: the object-based hull, one candidate object per distinct vertex,
# that convex_hull and dominance_map replaced. Results must agree exactly.


def reference_distinct(curve):
    """(index, over, under) of the distinct interior vertices, one vertex at a time."""
    interior = list(zip(curve.over.tolist(), curve.under.tolist()))
    finite = [(o, u) for o, u in interior if math.isfinite(o) and math.isfinite(u)]
    scale = max((max(o, -u) for o, u in finite), default=0.0)
    tol = 1e-12 * scale
    out = []
    for k, (o, u) in enumerate(interior):
        if out and abs(o - out[-1][1]) <= tol and abs(u - out[-1][2]) <= tol:
            continue
        out.append((k, o, u))
    return out


def reference_hull(inputs):
    """Finite hull points as (over, under, model id, vertex index)."""
    cands = []
    for model_id in sorted(inputs):
        item = inputs[model_id]
        if isinstance(item, RrocPoint):
            cands.append((item, model_id, None))
        else:
            for k, (_, o, u) in enumerate(reference_distinct(item)):
                cands.append((RrocPoint(o, u), model_id, k))
    cands.sort(key=lambda c: (c[0].over, -c[0].under, c[1]))
    frontier, best_under = [], -math.inf
    for c in cands:
        if c[0].under > best_under:
            frontier.append(c)
            best_under = c[0].under

    def turns_left(o, a, b):
        t1 = (a.over - o.over) * (b.under - o.under)
        t2 = (a.under - o.under) * (b.over - o.over)
        return (t1 - t2) > COLLINEAR_EPS * max(abs(t1), abs(t2), 1e-300)

    chain = []
    for c in frontier:
        while len(chain) >= 2 and turns_left(chain[-2][0], chain[-1][0], c[0]):
            chain.pop()
        chain.append(c)
    return [(p.over, p.under, m, k) for p, m, k in chain]


def reference_dominance(hull_points):
    """Regions as (alpha_low, alpha_high, model id, over, under)."""
    regions, low = [], 0.0
    for a, b in zip(hull_points, hull_points[1:]):
        high = hybrid_segment(RrocPoint(a[0], a[1]), RrocPoint(b[0], b[1])).crossover_alpha
        if high > low or not regions:
            regions.append((low, high, a[2], a[0], a[1]))
            low = high
    last = hull_points[-1]
    if not regions or low < 1.0:
        regions.append((low, 1.0, last[2], last[0], last[1]))
    return regions


# Longer lattice errors, drawn independently per model: their curves cross,
# so the hull chain meets convex runs, turns and pops where the runs meet.
long_lattice_errors = st.lists(st.integers(-1000, 1000), min_size=40, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=float) / 100.0
)


@st.composite
def hull_inputs(draw):
    """Curves and points of several models with ties, near-ties and collinear points.

    Each lattice error vector may also enter as an exact copy (tied curves),
    shifted by a constant or scaled by 1 + 1e-12 (curves equal up to float
    noise), or as its point. Longer independent error vectors, with their own
    bias and scale, give crossing curves. Extra points on one line of slope 1
    are collinear.
    """
    inputs = {}
    for e in draw(st.lists(long_lattice_errors, max_size=3)):
        bias, scale = draw(st.sampled_from([-1.0, 0.0, 0.5])), draw(st.sampled_from([0.8, 1.0, 1.25]))
        inputs[f"c{len(inputs)}"] = rroc_curve(bias + scale * e)
    for e in draw(st.lists(lattice_errors, min_size=1, max_size=3)):
        for variant in draw(st.lists(st.sampled_from(["curve", "copy", "shift", "scale", "point"]),
                                     min_size=1, max_size=3)):
            model_id = f"m{len(inputs)}"
            if variant == "point":
                inputs[model_id] = over_under(e)
            elif variant == "shift":
                inputs[model_id] = rroc_curve(e + 0.37, model_id)
            elif variant == "scale":
                inputs[model_id] = rroc_curve(e * (1 + 1e-12), model_id)
            else:
                inputs[model_id] = rroc_curve(e, model_id)
    for i in draw(st.lists(st.integers(0, 40), max_size=4, unique=True)):
        inputs[f"p{i}"] = RrocPoint(i / 4, i / 4 - 10.0)
    return inputs


@st.composite
def hand_built_columns(draw):
    """Nondecreasing over and under columns that no error vector sweeps to.

    Each step of each column is independently zero, a near tie of 1e-13 to
    2e-12 of the scale, or a regular step, so runs of vertices closer than
    the 1e-12 tolerance form in one coordinate, in the other, or in both.
    """
    n = draw(st.integers(1, 48))
    scale = draw(st.floats(1e-3, 1e3))
    step = st.one_of(st.just(0.0), st.floats(1e-13, 2e-12), st.floats(1e-3, 1.0))
    steps = [np.asarray(draw(st.lists(step, min_size=n - 1, max_size=n - 1))) * scale for _ in range(2)]
    rising = [np.concatenate(([0.0], np.cumsum(s))) for s in steps]
    over = rising[0] + draw(st.sampled_from([0.0, 1.0])) * scale
    under = rising[1] - rising[1][-1] - draw(st.sampled_from([0.0, 1.0])) * scale
    return over, under


class TestHullAgainstReference:
    @given(hull_inputs())
    @settings(max_examples=300, deadline=None)
    def test_hull_and_dominance_match_reference(self, inputs):
        hull = convex_hull(inputs)
        expected = reference_hull(inputs)
        got = [(hp.point.over, hp.point.under, hp.model_id, hp.vertex_index) for hp in hull.finite_points]
        assert got == expected
        want_regions = reference_dominance(expected)
        for dm in (dominance_map(inputs), dominance_map(hull)):
            regions = [(r.alpha_low, r.alpha_high, r.model_id, r.point.over, r.point.under)
                       for r in dm.regions]
            assert regions == want_regions

    @given(lattice_errors, st.sampled_from([1e-14, 1e-12, 1e-11]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_distinct_mask_matches_reference(self, values, eps, data):
        # Nudging tied errors apart by multiples of eps makes runs of vertices
        # closer than the 1e-12 tolerance, some drifting past it.
        nudges = data.draw(st.lists(st.integers(0, 3), min_size=values.size, max_size=values.size))
        curve = rroc_curve(values + np.asarray(nudges) * eps)
        want = [k for k, _, _ in reference_distinct(curve)]
        assert curve.distinct_vertices().tolist() == want

    @given(hand_built_columns())
    @settings(max_examples=300, deadline=None)
    def test_hand_built_distinct_vertices_match_reference(self, columns):
        over, under = columns
        curve = RrocCurve(over, under, np.zeros(over.size))
        assert curve.distinct_vertices().tolist() == [k for k, _, _ in reference_distinct(curve)]


def reference_model_at(regions, alpha):
    """The region scan that DominanceMap.model_at replaced."""
    for i, r in enumerate(regions):
        low_ok = r.alpha_low <= alpha if i == 0 else r.alpha_low < alpha
        if low_ok and alpha <= r.alpha_high:
            return r
    raise AssertionError(f"no region covers {alpha!r}")


class TestModelAtAgainstReference:
    @given(hull_inputs(), st.lists(st.floats(0.0, 1.0), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_matches_region_scan(self, inputs, alphas):
        dm = dominance_map(inputs)
        regions = dm.regions
        queries = [0.0, 1.0, *alphas]
        for r in regions:
            queries += [r.alpha_low, r.alpha_high, math.nextafter(r.alpha_high, 2.0),
                        math.nextafter(r.alpha_low, -1.0)]
        for a in queries:
            if 0.0 <= a <= 1.0:
                assert dm.model_at(a) is reference_model_at(regions, a)
