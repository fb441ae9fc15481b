from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rroc import (
    DataError,
    NoShift,
    OptimalConstantShift,
    RrocPoint,
    TrainedConstantShift,
    apply_shift,
    cost_curve,
    default_alpha_grid,
    metrics,
    optimal_constant_shift,
    over_under,
    rroc_curve,
    total_loss,
    trained_constant_shift,
    zero_bias_shift,
)

from .test_curve import shifted_sum_tolerance, tied_errors

error_arrays = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=48
).map(np.asarray)


def scan_loss(e, s, alpha):
    """Oracle: total loss of shift s by direct per-example evaluation."""
    t = np.asarray(e) + s
    return float(2 * (1 - alpha) * t[t > 0].sum() - 2 * alpha * t[t < 0].sum())


def exhaustive_best_loss(e, alpha):
    """Oracle: scan all candidate shifts, segment midpoints and outriggers."""
    q = np.sort(np.asarray(e, dtype=float))
    shifts = list(-q) + list(-(q[:-1] + q[1:]) / 2.0) + [-q[0] + 1.0, -q[-1] - 1.0]
    return min(scan_loss(e, s, alpha) for s in shifts)


def candidate_losses(q, alpha):
    """Oracle: total loss at every candidate shift -q[k], q sorted ascending.

    An independent construction of the curve vertices' losses by prefix sums
    over the ascending sort.
    """
    n = q.size
    csum = np.concatenate(([0.0], np.cumsum(q)))
    k = np.arange(n)
    # With s = -q[k]: shifted errors q_i - q_k; positive part from i > k,
    # negative part from i < k (the k-th term is exactly zero).
    over_sum = (csum[-1] - csum[k + 1]) - (n - k - 1) * q
    under_sum = csum[k] - k * q
    return 2.0 * (1.0 - alpha) * over_sum - 2.0 * alpha * under_sum


def candidate_scan(e, alpha):
    """Oracle: every candidate shift with its loss, and the scan's winner.

    The winner has the least loss; on exact ties the smallest |shift|, and
    of two shifts of equal magnitude the positive one.
    """
    q = np.sort(np.asarray(e, dtype=float))
    losses = candidate_losses(q, alpha)
    ties = np.nonzero(losses == losses.min())[0]
    winner = ties[np.argmin(np.abs(q[ties]))]
    return -q, losses, float(-q[winner])


@st.composite
def plateau_problems(draw):
    """Errors (often tied) with alphas that are often on the k/n plateau grid."""
    e = draw(
        st.one_of(
            error_arrays,
            st.lists(st.integers(-8, 8), min_size=1, max_size=48).map(lambda v: np.asarray(v, float)),
            # n a power of two puts the k/n plateaus on exact binary fractions
            st.sampled_from([2, 4, 8, 16, 32])
            .flatmap(lambda n: st.lists(st.integers(-8, 8), min_size=n, max_size=n))
            .map(lambda v: np.asarray(v, float)),
            st.lists(st.sampled_from([-1.7, -0.3, 0.0, 0.1, 2.9]), min_size=1, max_size=48).map(np.asarray),
        )
    )
    n = e.size
    alpha = draw(
        st.one_of(
            st.floats(0, 1, allow_nan=False),
            st.integers(0, n).map(lambda k: k / n),
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        )
    )
    return e, alpha


class TestApplyShift:
    def test_zero_is_identity(self):
        p = np.array([1.0, 2.5, -3.0])
        assert np.array_equal(apply_shift(p, 0.0), p)

    def test_zero_bias_shift_centers_m1(self, actual, errors):
        e = errors["m1"]
        s = zero_bias_shift(e)
        assert s == pytest.approx(0.3107, abs=5e-4)
        assert metrics(e + s).bias == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        p = np.array([0.1, -2.7, 9.4])
        back = apply_shift(apply_shift(p, 1.37), -1.37)
        assert np.allclose(back, p, rtol=0, atol=1e-12)

    def test_non_finite_shift_rejected(self):
        with pytest.raises(DataError):
            apply_shift([1.0], np.inf)

    @pytest.mark.parametrize("s", [0.5, 1, np.float32(0.5), np.float64(0.5), np.int64(1), Fraction(1, 2)],
                             ids=["float", "int", "float32", "float64", "int64", "Fraction"])
    def test_any_finite_real_shift(self, s):
        shifted = apply_shift([1.0, -2.0], s)
        assert shifted.dtype == np.float64
        assert shifted.tolist() == [1.0 + float(s), -2.0 + float(s)]

    @pytest.mark.parametrize("s", [np.float32(np.nan), np.float64(np.inf), -np.inf, "0.5", None])
    def test_non_finite_or_non_real_shift_rejected(self, s):
        with pytest.raises(DataError, match="shift must be finite"):
            apply_shift([1.0], s)


# Ints beyond the float range are rejected as out of range, not left to
# float() to raise OverflowError.
@pytest.mark.parametrize("huge", [10**400, -10**400, 2**1024], ids=["1e400", "-1e400", "2**1024"])
@pytest.mark.parametrize("call, message", [
    (lambda v: apply_shift([1.0], v), "shift must be finite"),
    (lambda v: total_loss(RrocPoint(1.0, -1.0), v), r"alpha must be in \[0, 1\]"),
    (lambda v: optimal_constant_shift([1.0], v), r"alpha must be in \[0, 1\]"),
], ids=["apply_shift", "total_loss", "optimal_constant_shift"])
def test_huge_int_is_a_data_error(call, message, huge):
    with pytest.raises(DataError, match=message):
        call(huge)


class TestOptimalConstantShift:
    def test_single_example_reaches_zero_loss(self):
        s, loss = optimal_constant_shift([2.7], 0.42)
        assert s == -2.7
        assert loss == 0.0

    def test_alpha_zero_conventional_shift(self, errors):
        e = errors["m1"]
        s, loss = optimal_constant_shift(e, 0.0)
        assert s == pytest.approx(-e.max())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_conventional_shift(self, errors):
        e = errors["m1"]
        s, loss = optimal_constant_shift(e, 1.0)
        assert s == pytest.approx(-e.min())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_m1_median_plateau(self, errors):
        e = errors["m1"]
        s, loss = optimal_constant_shift(e, 0.5)
        assert loss == pytest.approx(8.245, abs=5e-4)
        # the whole plateau, including the -median midpoint, shares the loss
        assert scan_loss(e, float(-np.median(e)), 0.5) == pytest.approx(loss, rel=1e-12)
        assert loss == pytest.approx(exhaustive_best_loss(e, 0.5), rel=1e-12)

    @given(error_arrays, st.floats(0, 1, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_never_beaten_by_exhaustive_scan(self, e, alpha):
        _, loss = optimal_constant_shift(e, alpha)
        assert loss <= exhaustive_best_loss(e, alpha) + 1e-9

    @given(error_arrays, st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_returned_loss_matches_returned_shift(self, e, alpha):
        s, loss = optimal_constant_shift(e, alpha)
        assert loss == pytest.approx(scan_loss(e, s, alpha), rel=1e-9, abs=1e-9)

    @given(plateau_problems())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_prefix_sum_candidate_scan(self, problem):
        e, alpha = problem
        s, loss = optimal_constant_shift(e, alpha)
        shifts, losses, winner = candidate_scan(e, alpha)
        tol = 1e-12 * e.size * float(np.abs(e).max())
        assert abs(loss - losses.min()) <= tol
        assert np.any((shifts == s) & (losses <= losses.min() + tol))
        # Integer errors and an alpha with a short binary fraction make both
        # loss computations exact, so both see the same exact ties.
        if np.all(e == np.round(e)) and Fraction(alpha).denominator <= 2**16:
            assert s == winner

    def test_plateau_takes_smallest_magnitude_shift(self):
        # n = 4, alpha = 1/2: the vertices of shifts -2 and 1 tie at loss 10.
        assert optimal_constant_shift([-3.0, -1.0, 2.0, 4.0], 0.5) == (1.0, 10.0)
        # equal magnitudes: the positive shift, as the candidate scan picks it
        assert optimal_constant_shift([-1.0, 1.0], 0.5) == (1.0, 2.0)
        assert candidate_scan([-1.0, 1.0], 0.5)[2] == 1.0

    def test_method_shifts_match_per_alpha_optimum(self, errors):
        grid = default_alpha_grid()
        e, train = errors["m1"], errors["m2"]
        curve = rroc_curve(e)
        optimal = OptimalConstantShift().shifts(curve, grid)
        trained = TrainedConstantShift(train).shifts(curve, grid)
        assert optimal.tolist() == [optimal_constant_shift(e, a)[0] for a in grid]
        assert trained.tolist() == [optimal_constant_shift(train, a)[0] for a in grid]
        assert NoShift().shifts(curve, grid).tolist() == [0.0] * grid.size

    def test_shifted_point_lands_on_curve_vertex(self, errors):
        e = errors["m3"]
        curve = rroc_curve(e)
        n = curve.n
        for alpha in [0.0, 0.21, 0.5, 0.77, 1.0]:
            s, _ = optimal_constant_shift(e, alpha)
            p = over_under(e + s)
            match = [
                k
                for k, (over, under) in enumerate(zip(curve.over, curve.under), start=1)
                if p.over == pytest.approx(over, abs=1e-9)
                and p.under == pytest.approx(under, abs=1e-9)
            ]
            assert match
            # the bracketing segment slopes straddle the isometric slope
            iso = (1 - alpha) / alpha if alpha > 0 else np.inf
            brackets = [
                (
                    np.inf if k == 1 else (n + 1 - k) / (k - 1),
                    (n - k) / k,
                )
                for k in match
            ]
            assert any(after <= iso <= before for before, after in brackets)


class TestTrainedConstantShift:
    def test_train_equals_test_is_optimal(self, errors):
        e = errors["m2"]
        for alpha in [0.1, 0.5, 0.9]:
            point, loss = trained_constant_shift(e, alpha, e)
            _, optimal = optimal_constant_shift(e, alpha)
            assert loss == pytest.approx(optimal, rel=1e-12, abs=1e-12)
            assert total_loss(point, alpha) == pytest.approx(loss, rel=1e-12)

    def test_regret_grows_with_train_test_mismatch(self, errors):
        e = errors["m1"]
        alpha = 0.8
        _, optimal = optimal_constant_shift(e, alpha)
        regrets = []
        for c in (0.5, 1.0, 2.0):
            _, loss = trained_constant_shift(e + c, alpha, e)
            regrets.append(loss - optimal)
        assert all(r >= -1e-12 for r in regrets)
        assert regrets == sorted(regrets)

    @given(error_arrays, error_arrays, st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_never_below_test_optimum(self, train, test, alpha):
        _, loss = trained_constant_shift(train, alpha, test)
        _, optimal = optimal_constant_shift(test, alpha)
        assert loss >= optimal - 1e-9


class TestCostCurve:
    def test_none_method_is_affine(self, errors):
        e = errors["m1"]
        cc = cost_curve(e, NoShift())
        assert cc.method == "none"
        assert cc.losses[0] == pytest.approx(0.5138, abs=5e-4)
        assert cc.losses[-1] == pytest.approx(1.1352, abs=5e-4)
        interpolated = cc.losses[0] + (cc.losses[-1] - cc.losses[0]) * cc.alphas
        assert np.allclose(cc.losses, interpolated, rtol=0, atol=1e-12)

    def test_optimal_free_at_extreme_alphas(self, errors):
        cc = cost_curve(errors["m2"], OptimalConstantShift())
        assert cc.losses[0] == pytest.approx(0.0, abs=1e-12)
        assert cc.losses[-1] == pytest.approx(0.0, abs=1e-12)

    def test_optimal_never_above_none(self, errors):
        for e in errors.values():
            none = cost_curve(e, NoShift())
            optimal = cost_curve(e, OptimalConstantShift())
            assert np.all(optimal.losses <= none.losses + 1e-12)

    def test_trained_between_optimal_and_worse(self, errors):
        grid = default_alpha_grid()
        test = errors["m1"]
        trained = cost_curve(test, TrainedConstantShift(errors["m1"] + 1.0), grid)
        optimal = cost_curve(test, OptimalConstantShift(), grid)
        assert np.all(trained.losses >= optimal.losses - 1e-12)

    def test_none_method_applies_its_shift_once(self, errors, monkeypatch):
        import rroc.shift

        calls = []
        original = rroc.shift.over_under_at

        def counting(curve, shifts):
            calls.append(np.unique(shifts).tolist())
            return original(curve, shifts)

        monkeypatch.setattr(rroc.shift, "over_under_at", counting)
        e = errors["m1"]
        cc = cost_curve(e, NoShift())
        assert calls == [[0.0]]
        # The curve sums in another order than over_under: a few ulps apart.
        tol = 2 * shifted_sum_tolerance(e, [0.0]) / e.size
        point = over_under(e)
        want = [total_loss(point, float(a)) / e.size for a in cc.alphas]
        assert np.abs(cc.losses - want).max() <= tol

    def test_one_curve_per_call(self, errors, monkeypatch):
        import rroc.shift

        built = []
        original = rroc.shift.rroc_curve

        def counting(e, *args, **kwargs):
            built.append(np.asarray(e).tolist())
            return original(e, *args, **kwargs)

        monkeypatch.setattr(rroc.shift, "rroc_curve", counting)
        e, train = errors["m1"], errors["m2"]
        for method in (NoShift(), OptimalConstantShift()):
            built.clear()
            cost_curve(e, method)
            assert built == [e.tolist()], method.kind
        built.clear()
        method = TrainedConstantShift(train)
        cost_curve(e, method)
        cost_curve(e, method)
        # The training curve is built once, in the constructor.
        assert built == [train.tolist(), e.tolist(), e.tolist()]

    @given(st.one_of(error_arrays, tied_errors))
    @settings(max_examples=200, deadline=None)
    def test_optimal_losses_are_the_optimal_vertex_losses(self, e):
        from rroc.curve import _optimal_vertices

        grid = default_alpha_grid()
        want = _optimal_vertices(rroc_curve(e), grid)[1] / e.size
        assert cost_curve(e, OptimalConstantShift(), grid).losses.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shifts, message", [
        ([0.5], "returned 1 shifts for 101 alphas"),
        (np.zeros((101, 2)), "returned 202 shifts for 101 alphas"),
        (np.full(101, np.nan), "shifts must be finite"),
        (np.full(101, 1e308), "overflows"),
    ], ids=["one-shift", "two-per-alpha", "nan", "overflow"])
    def test_method_output_checked(self, shifts, message, recwarn):
        class Fixed(NoShift):
            def shifts(self, curve, alphas):
                return shifts

        with pytest.raises(DataError, match=message):
            cost_curve([1e308, 0.0], Fixed())
        assert len(recwarn) == 0

    def test_grid_validation(self, errors):
        with pytest.raises(DataError):
            cost_curve(errors["m1"], NoShift(), alphas=[])
        with pytest.raises(DataError):
            cost_curve(errors["m1"], NoShift(), alphas=[0.5, 1.2])

    def test_default_grid(self):
        grid = default_alpha_grid()
        assert grid.size == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_duality_with_curve_vertices(self, errors):
        # optimal cost at alpha is the cheapest curve vertex divided by n
        e = errors["m3"]
        curve = rroc_curve(e)
        from rroc import RrocPoint

        cc = cost_curve(e, OptimalConstantShift(), np.linspace(0, 1, 21))
        for a, loss in zip(cc.alphas, cc.losses):
            vertex_min = min(
                total_loss(RrocPoint(o, u), float(a))
                for o, u in zip(curve.over.tolist(), curve.under.tolist())
            )
            assert loss == pytest.approx(vertex_min / curve.n, rel=1e-12, abs=1e-12)


class TestMethodKinds:
    def test_kind_labels(self, errors):
        assert NoShift().kind == "none"
        assert OptimalConstantShift().kind == "optimal_constant"
        assert TrainedConstantShift(errors["m1"]).kind == "trained_constant"
