import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rroc import (
    DataError,
    RrocCurve,
    aoc,
    aoc_brute_force,
    convex_hull,
    default_shift_grid,
    is_convex,
    normalized_curve,
    over_under,
    optimal_constant_shift,
    over_under_at,
    rroc_curve,
    segment_alpha,
    segment_slopes,
)

error_lists = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
)
# Errors on a 0.01 lattice: adjacent distinct values stay well separated, so
# relative checks on coordinate differences are meaningful (float near-ties a
# few ulps apart would vanish inside the accumulated sums).
lattice_errors = st.lists(st.integers(-1000, 1000), min_size=1, max_size=64).map(
    lambda xs: np.asarray(xs, dtype=float) / 100.0
)
distinct_lattice_errors = st.lists(
    st.integers(-1000, 1000), min_size=2, max_size=40, unique=True
).map(lambda xs: np.asarray(xs, dtype=float) / 100.0)


# Errors over six decades of scale, and quarter-lattice errors with many ties.
scaled_errors = st.tuples(error_lists, st.floats(1e-3, 1e3)).map(
    lambda t: np.asarray(t[0], dtype=float) * t[1])
tied_errors = st.lists(st.integers(-40, 40), min_size=1, max_size=64).map(
    lambda xs: np.asarray(xs, dtype=float) / 4)
shift_test_errors = st.one_of(scaled_errors, tied_errors)


def shifted_sums_by_loop(e, shifts):
    """Reference for ``over_under_at``: one ``over_under(e + s)`` per shift."""
    points = [over_under(np.asarray(e) + s) for s in np.asarray(shifts).tolist()]
    return np.array([p.over for p in points]), np.array([p.under for p in points])


def shifted_sum_tolerance(e, shifts):
    """Bound on OVER/UNDER rounding, fixed from float64 eps before any run.

    Each of the n terms ``e_i + s`` is rounded once and the sums add n terms
    of size at most ``|e_i| + |s|``; the factor 4 covers both evaluations.
    """
    e = np.abs(np.asarray(e, dtype=float))
    n = e.size
    return 4 * n * np.finfo(float).eps * (e.sum() + n * float(np.max(np.abs(shifts))))


def vertices_by_direct_summation(e):
    """Oracle: recompute every vertex by brute-force shifted sums."""
    es = np.sort(np.asarray(e, dtype=float))[::-1]
    overs = [float((es[es > s] - s).sum()) for s in es]
    unders = [float((es[es <= s] - s).sum()) for s in es]
    return overs, unders


def curve_by_stable_argsort(e):
    """Oracle: the columns as built from a stable decreasing argsort and a gather."""
    e = np.asarray(e, dtype=float)
    n = e.size
    es = e[np.argsort(-e, kind="stable")]
    if n == 1:
        return np.zeros(1), np.zeros(1), 0.0 - es
    d = es[:-1] - es[1:]
    d += 0.0
    overs = np.concatenate(([0.0], np.cumsum(np.arange(1, n) * d)))
    w = np.arange(n - 1, 0, -1) * d
    return overs, 0.0 - np.concatenate((np.cumsum(w[::-1])[::-1], [0.0])), 0.0 - es


class TestCurveConstruction:
    def test_m1_shape(self, errors):
        curve = rroc_curve(errors["m1"], "m1")
        assert curve.n == 10
        assert len(curve.vertices) == 12           # n + 2 vertices
        assert len(curve.vertices) - 1 == 11       # n + 1 segments
        assert len(curve.distinct_vertices()) == 10

    def test_extreme_vertices(self, errors):
        curve = rroc_curve(errors["m1"])
        first, last = curve.vertices[0], curve.vertices[-1]
        assert tuple(first) == (0.0, -math.inf)
        assert tuple(last) == (math.inf, 0.0)

    def test_vertices_array(self, errors):
        curve = rroc_curve(errors["m1"])
        vertices = curve.vertices
        assert vertices.shape == (12, 2)
        assert not vertices.flags.writeable
        assert vertices[1:-1, 0].tolist() == curve.over.tolist()
        assert vertices[1:-1, 1].tolist() == curve.under.tolist()

    def test_m4_ties_collapse_to_five_points(self, errors):
        curve = rroc_curve(errors["m4"])
        assert curve.over.size == 10
        assert len(curve.distinct_vertices()) == 5

    def test_single_example(self):
        curve = rroc_curve([2.7])
        assert (curve.over.tolist(), curve.under.tolist()) == ([0.0], [0.0])
        assert curve.shift.tolist() == [-2.7]
        assert aoc(curve) == 0.0

    def test_interior_shifts_are_negated_sorted_errors(self, errors):
        curve = rroc_curve(errors["m1"])
        shifts = curve.shift.tolist()
        assert shifts == sorted(shifts)
        assert shifts == [-s for s in sorted(errors["m1"], reverse=True)]

    def test_vertex_coordinates_at_shift(self, errors):
        # applying a vertex's shift reproduces its coordinates
        e = errors["m1"]
        curve = rroc_curve(e)
        for over, under, shift in zip(curve.over, curve.under, curve.shift):
            p = over_under(e + shift)
            assert p.over == pytest.approx(over, rel=1e-12, abs=1e-12)
            assert p.under == pytest.approx(under, rel=1e-12, abs=1e-12)

    @given(error_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_summation_oracle(self, values):
        curve = rroc_curve(values)
        overs, unders = vertices_by_direct_summation(values)
        assert curve.over == pytest.approx(overs, abs=1e-9)
        assert curve.under == pytest.approx(unders, abs=1e-9)

    @given(st.lists(st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.just(-0.0)),
                    min_size=1, max_size=64))
    @example([0.0, 1.0])  # an error of 0.0 has the vertex shift 0.0
    @example([0.0, 0.0, 0.0])
    @settings(max_examples=200, deadline=None)
    def test_zero_coordinates_are_positive_zero(self, values):
        # Ties, -0.0 among them, make zero steps; a zero coordinate or shift
        # is +0.0, and a shifted model at a vertex shift is that vertex, sign
        # included. The optimal shift and its loss are curve values too.
        curve = rroc_curve(values)
        for c in (curve, normalized_curve(curve)):
            assert not np.signbit(c.shift[c.shift == 0.0]).any()
            for column, at_vertex in zip((c.over, c.under), over_under_at(c, c.shift)):
                assert not np.signbit(column[column == 0.0]).any()
                assert at_vertex.tobytes() == column.tobytes()
        for alpha in (0.0, 0.5, 1.0):
            best = np.array(optimal_constant_shift(values, alpha))
            assert not np.signbit(best[best == 0.0]).any()

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                              st.integers(-8, 8).map(lambda k: k / 4), st.floats(-1e6, 1e6)),
                    min_size=1, max_size=64))
    @example([0.0, -0.0, 0.0])
    @example([-0.0, 1.0, 0.0, -0.0])
    @settings(max_examples=300, deadline=None)
    def test_value_sort_matches_the_stable_argsort_bit_for_bit(self, values):
        # Tied errors are equal values, -0.0 and 0.0 included, so the order
        # among them cannot show in any column.
        curve = rroc_curve(values)
        want = curve_by_stable_argsort(values)
        for got, column in zip((curve.over, curve.under, curve.shift), want):
            assert got.tobytes() == column.tobytes()

    @given(lattice_errors)
    @settings(max_examples=200, deadline=None)
    def test_monotone_distinct_vertices(self, values):
        curve = rroc_curve(values)
        distinct = curve.distinct_vertices()
        assert np.all(np.diff(curve.over[distinct]) > 0)
        assert np.all(np.diff(curve.under[distinct]) > 0)


class TestDistinctMask:
    def test_compares_with_last_kept_vertex(self):
        # Scale 1, tolerance 1e-12: the third vertex is within tolerance of
        # its neighbour but not of the last kept vertex.
        over = [0.0, 6e-13, 1.2e-12, 1.0]
        under = [-1.0, -1.0, -1.0, 0.0]
        assert RrocCurve(over, under, np.zeros(4)).distinct_vertices().tolist() == [0, 2, 3]

    def test_distinct_vertices_run_the_rule_once_per_curve(self, monkeypatch):
        import rroc.curve

        calls = []
        original = rroc.curve._distinct_rule

        def counting(over, under):
            calls.append(over.size)
            return original(over, under)

        monkeypatch.setattr(rroc.curve, "_distinct_rule", counting)
        curve = rroc_curve([1.0, 1.0, -2.0, 0.5])  # the tied errors make vertices 0 and 1 coincide
        assert curve.distinct_vertices().tolist() == [0, 2, 3]
        assert is_convex(curve)
        assert curve.distinct_vertices().tolist() == [0, 2, 3]
        assert calls == [4]


class TestSegmentGeometry:
    def test_slope_ladder_n10(self):
        slopes = segment_slopes(10)                # slopes[i - 1] is segment i's
        assert slopes.shape == (11,)
        assert slopes[0] == math.inf
        assert slopes[1] == 9.0
        assert slopes[10] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 97, 1000])
    def test_slopes_match_the_ladder_formula_exactly(self, n):
        ladder = [math.inf] + [(n + 1 - i) / (i - 1) for i in range(2, n + 2)]
        assert segment_slopes(n).tolist() == ladder

    def test_slopes_depend_only_on_n(self):
        finite = segment_slopes(7)[1:].tolist()
        assert finite == sorted(finite, reverse=True)

    def test_segment_alpha(self):
        assert segment_alpha(10, 1) == 0.0
        assert segment_alpha(10, 11) == 1.0
        assert segment_alpha(10, 6) == 0.5

    def test_input_errors(self):
        with pytest.raises(DataError):
            segment_slopes(0)
        with pytest.raises(DataError):
            segment_alpha(10, 0)
        with pytest.raises(DataError):
            segment_alpha(10, 12)

    @pytest.mark.parametrize("call", [lambda: segment_slopes(2.5), lambda: segment_slopes(3.0),
                                      lambda: segment_slopes("3"), lambda: segment_alpha(3, 2.5),
                                      lambda: segment_alpha(3.5, 2), lambda: segment_alpha(3, np.float64(2))],
                             ids=["slopes-2.5", "slopes-3.0", "slopes-str", "alpha-i-2.5", "alpha-n-3.5",
                                  "alpha-i-float64"])
    def test_non_integer_sizes_rejected(self, call):
        with pytest.raises(DataError, match="must be an integer"):
            call()

    def test_numpy_integer_sizes_accepted(self):
        assert segment_slopes(np.int64(10)).tolist() == segment_slopes(10).tolist()
        assert segment_alpha(np.int32(10), np.uint8(6)) == 0.5

    @given(distinct_lattice_errors)
    @settings(max_examples=200, deadline=None)
    def test_measured_slopes_follow_the_ladder(self, values):
        curve = rroc_curve(values)
        n = curve.n
        ov, un = curve.over, curve.under
        for i in range(n - 1):
            measured = (un[i + 1] - un[i]) / (ov[i + 1] - ov[i])
            expected = (n + 1 - (i + 2)) / (i + 1)  # interior segment i+2 of n+1
            assert measured == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestAoc:
    def test_worked_areas(self, errors):
        assert aoc(rroc_curve(errors["m1"])) == pytest.approx(56.1387, abs=5e-4)
        assert aoc(rroc_curve(errors["m2"])) == pytest.approx(88.0933, abs=5e-4)
        assert aoc(rroc_curve(errors["m3"])) == pytest.approx(63.9295, abs=5e-4)

    def test_constant_errors_have_zero_area(self):
        assert aoc(rroc_curve([1.3] * 7)) == 0.0

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_equals_variance_identity(self, values):
        e = np.asarray(values)
        n = e.size
        expected = float(np.var(e)) * n * n / 2.0
        assert aoc(rroc_curve(e)) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(lattice_errors.filter(lambda e: e.size >= 2))
    @settings(max_examples=200, deadline=None)
    def test_unbiased_corollary(self, values):
        e = np.asarray(values)
        e = e - e.mean()
        n = e.size
        mse = float(np.mean(e * e))
        assert aoc(rroc_curve(e)) == pytest.approx(mse * n * n / 2.0, rel=1e-9, abs=1e-9)

    @given(
        lattice_errors.filter(lambda e: e.size >= 2),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, c):
        e = np.asarray(values)
        assert aoc(rroc_curve(e + c)) == pytest.approx(aoc(rroc_curve(e)), rel=1e-9, abs=1e-9)


class TestBruteForceOracle:
    def test_m2_fine_grid(self, errors):
        e = errors["m2"]
        lo, hi = -e.max(), -e.min()
        span = e.max() - e.min()
        grid = np.arange(lo - span, hi + span, 1e-4)
        assert aoc_brute_force(e, grid) == pytest.approx(88.0933, abs=0.01)

    def test_constant_errors_zero_on_default_grid(self):
        assert aoc_brute_force([0.4] * 5) == 0.0

    def test_matches_trapezoid_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            e = rng.uniform(-10, 10, 50)
            assert aoc_brute_force(e) == pytest.approx(aoc(rroc_curve(e)), rel=1e-3)

    def test_non_monotone_grid_rejected(self, errors):
        with pytest.raises(DataError):
            aoc_brute_force(errors["m1"], [0.0, 1.0, 0.5])

    def test_default_grid_spans_padded_range(self, errors):
        e = errors["m1"]
        grid = default_shift_grid(e)
        span = e.max() - e.min()
        assert grid[0] == pytest.approx(-e.max() - span)
        assert grid[-1] == pytest.approx(-e.min() + span)
        assert np.all(np.diff(grid) > 0)


class TestNormalizedCurve:
    def test_divides_coordinates_by_n(self, errors):
        curve = normalized_curve(rroc_curve(errors["m1"]))
        assert curve.normalized
        assert curve.over.max() == pytest.approx(rroc_curve(errors["m1"]).over.max() / 10)
        assert curve.under.min() < 0

    def test_normalized_aoc_is_half_variance(self, errors):
        e = errors["m1"]
        norm = normalized_curve(rroc_curve(e))
        assert aoc(norm) == pytest.approx(0.561387, abs=5e-5)
        assert aoc(norm) == pytest.approx(float(np.var(e)) / 2.0, rel=1e-9)

    def test_unit_dataset_unchanged(self):
        curve = rroc_curve([1.5])
        norm = normalized_curve(curve)
        assert (norm.over.tolist(), norm.under.tolist()) == (curve.over.tolist(), curve.under.tolist())

    def test_keeps_the_distinct_vertices_of_its_source(self):
        # Near ties that the rule settles differently once divided by n.
        curve = rroc_curve([1.5e-12, 0.750000000001, 0.25, -0.249999999999, -0.2499999999985, -0.5,
                            0.250000000001])
        norm = normalized_curve(curve)
        assert norm.distinct_vertices().tolist() == curve.distinct_vertices().tolist() == [0, 1, 2, 3, 4, 6]
        assert RrocCurve(norm.over, norm.under, norm.shift).distinct_vertices().size == 5
        assert (convex_hull({"m": norm}).vertex_index.tolist()
                == convex_hull({"m": curve}).vertex_index.tolist() == [0, 1, 2, 3, 4, 5])

    def test_mask_is_derived_when_first_read_and_once_for_both(self, monkeypatch):
        import rroc.curve

        calls = []
        original = rroc.curve._distinct_rule
        monkeypatch.setattr(rroc.curve, "_distinct_rule", lambda o, u: calls.append(o) or original(o, u))
        curve = rroc_curve([1.0, 1.0, -2.0, 0.5])
        assert calls == []
        norm = normalized_curve(curve)
        assert norm.distinct_vertices().tolist() == curve.distinct_vertices().tolist() == [0, 2, 3]
        assert len(calls) == 1 and calls[0] is curve.over


class TestConvexity:
    def test_curves_are_convex(self, errors):
        for e in errors.values():
            assert is_convex(rroc_curve(e))

    def test_tied_errors_still_convex(self, errors):
        assert is_convex(rroc_curve(errors["m4"]))

    @given(lattice_errors)
    @settings(max_examples=200, deadline=None)
    def test_every_generated_curve_convex(self, values):
        assert is_convex(rroc_curve(values))

    def test_slope_inversion_detected(self):
        curve = RrocCurve(
            over=np.array([0.0, 1.0, 2.0]),
            under=np.array([-10.0, -9.5, -5.0]),   # slopes 0.5, then 4.5: inversion
            shift=np.array([-2.0, -1.0, 0.0]),
        )
        assert not is_convex(curve)

    def test_slope_beyond_the_float_range_is_steep_without_warnings(self):
        # The first segment's slope, 1e300 / 1e-300, is an inf float: vertical.
        curve = RrocCurve(over=[0.0, 1e-300, 1.0], under=[-1e300, 0.0, 0.0], shift=[0.0, 1.0, 2.0])
        assert is_convex(curve)


class TestCurveValidation:
    def test_aoc_needs_finite_interior(self):
        with pytest.raises(DataError):
            RrocCurve(over=np.array([1.0]), under=np.array([-math.inf]), shift=np.array([0.0]))

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DataError, match="one length"):
            RrocCurve(np.zeros(3), np.zeros(2), np.zeros(3))
        with pytest.raises(DataError, match="1-D"):
            RrocCurve(np.zeros((3, 1)), np.zeros(3), np.zeros(3))

    def test_list_columns_accepted(self):
        curve = RrocCurve([0.0, 1.0], [-1.0, 0.0], [-1.0, 0.0])
        assert isinstance(curve.over, np.ndarray) and not curve.over.flags.writeable
        assert aoc(curve) == 0.5

    def test_columns_are_float64_and_float64_is_not_copied(self):
        over = np.array([0.0, 1.0])
        curve = RrocCurve(over, np.array([-1, 0], dtype=np.int8), np.array([False, True]))
        assert curve.over is over
        assert [c.dtype for c in (curve.over, curve.under, curve.shift)] == [np.float64] * 3
        assert (curve.under.tolist(), curve.shift.tolist()) == ([-1.0, 0.0], [0.0, 1.0])

    # No vertex, a non-finite over, over < 0 and under > 0 are the cases of
    # test_analysis.py::TestConvexHull::test_invalid_curve_vertices_rejected_by_model.
    @pytest.mark.parametrize(
        "over, under, shift",
        [
            ([0.0, 1.0], [math.nan, 0.0], [0.0, 1.0]),
            ([0.0, 1.0], [-math.inf, 0.0], [0.0, 1.0]),
            ([0.0, 1.0], [-1.0, 0.0], [math.nan, 1.0]),
            ([0.0, 1.0], [-1.0, 0.0], [0.0, math.inf]),
            ([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]),
            ([0.0, 6e-13, 1.2e-12, 6e-13, 1.0], [-1.0, -1.0, -1.0, -1.0, 0.0], [0.0] * 5),
            ([0.0, 1.0, 2.0], [-1.0, -2.0, 0.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, math.inf, 2.0], [-1.0] * 3 + [0.0], [0.0] * 4),
            ([1j], [0.0], [0.0]),
            (["a"], ["b"], ["c"]),
            ([None], [0.0], [0.0]),
        ],
        ids=["nan-under", "inf-under", "nan-shift", "inf-shift", "decreasing-shift", "decreasing-over",
             "decreasing-under", "inner-inf-over", "complex", "str", "none"],
    )
    def test_constructor_rejects_and_names_the_model(self, over, under, shift):
        with pytest.raises(DataError, match="'bad'"):
            RrocCurve(over, under, shift, model_id="bad")


class TestOverUnderAt:
    @given(shift_test_errors)
    @settings(max_examples=200, deadline=None)
    def test_vertex_shifts_give_the_vertices_exactly(self, e):
        curve = rroc_curve(e)
        for c in (curve, normalized_curve(curve)):
            over, under = over_under_at(c, c.shift)
            assert over.tolist() == c.over.tolist()
            assert under.tolist() == c.under.tolist()

    @given(shift_test_errors, st.floats(0.0, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_shift_loop(self, e, beyond):
        curve = rroc_curve(e)
        s = curve.shift
        shifts = np.concatenate((s, s - 1e-9, (s[:-1] + s[1:]) / 2, [s[0] - beyond, s[-1] + beyond]))
        over, under = over_under_at(curve, shifts)
        want_over, want_under = shifted_sums_by_loop(e, shifts)
        tol = shifted_sum_tolerance(e, shifts)
        assert np.abs(over - want_over).max() <= tol
        assert np.abs(under - want_under).max() <= tol
        n_over, n_under = over_under_at(normalized_curve(curve), shifts)
        assert np.abs(n_over - want_over / e.size).max() <= tol / e.size
        assert np.abs(n_under - want_under / e.size).max() <= tol / e.size

    def test_below_the_first_vertex_every_example_is_under(self):
        over, under = over_under_at(rroc_curve([1.0, 2.0, 4.0]), [-5.0, -4.0, 0.0, 1.0])
        assert over.tolist() == [0.0, 0.0, 7.0, 10.0]
        assert under.tolist() == [-8.0, -5.0, 0.0, 0.0]

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(DataError, match="shifts must be finite"):
            over_under_at(rroc_curve([1.0, 2.0]), [0.0, shift])

    def test_overflowing_sum_is_a_data_error_without_warnings(self, recwarn):
        with pytest.raises(DataError, match="overflows"):
            over_under_at(rroc_curve([1e308]), [1e308])
        assert len(recwarn) == 0
