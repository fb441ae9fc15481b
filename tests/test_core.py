import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rroc import (
    ConfigError,
    Dataset,
    DataError,
    NoShift,
    OperatingCondition,
    OptimalConstantShift,
    RrocPoint,
    RunConfig,
    TrainedConstantShift,
    aoc,
    aoc_brute_force,
    apply_shift,
    asymmetric_loss,
    best_point_for_alpha,
    convex_hull,
    cost_curve,
    default_shift_grid,
    error_density,
    error_vector,
    generate_synthetic,
    hybrid_segment,
    isometric_through,
    metrics,
    optimal_constant_shift,
    over_under,
    over_under_at,
    rroc_curve,
    segment_alpha,
    segment_slopes,
    total_loss,
)

finite_errors = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
)


class TestErrorVector:
    def test_worked_examples(self, actual):
        e1 = error_vector([-0.082, 3.323], [0.211, 2.725])
        assert e1[0] == pytest.approx(-0.293)
        e3 = error_vector([9.325], [6.061])
        assert e3[0] == pytest.approx(3.264)

    def test_identity_gives_zeros(self, actual):
        assert np.all(error_vector(actual, actual) == 0.0)

    def test_order_preserved(self):
        e = error_vector([1.0, 4.0, 2.0], [0.0, 0.0, 0.0])
        assert list(e) == [1.0, 4.0, 2.0]

    @pytest.mark.parametrize(
        "predicted,actual_",
        [([1.0, 2.0], [1.0]), ([], []), ([np.nan], [0.0]), ([1.0], [np.inf])],
    )
    def test_invalid_inputs(self, predicted, actual_):
        with pytest.raises(DataError):
            error_vector(predicted, actual_)


class TestOverUnder:
    def test_m1(self, errors):
        p = over_under(errors["m1"])
        assert p.over == pytest.approx(2.569, abs=5e-4)
        assert p.under == pytest.approx(-5.676, abs=5e-4)

    def test_all_zero_is_heaven(self):
        p = over_under([0.0, 0.0, 0.0])
        assert (p.over, p.under) == (0.0, 0.0)

    def test_direct_summation(self):
        p = over_under([-10.0, -0.1, 5.0])
        assert p.over == pytest.approx(5.0)
        assert p.under == pytest.approx(-10.1)

    def test_zero_errors_count_to_neither(self):
        p = over_under([0.0, 1.5, -2.5, 0.0])
        assert p.over == 1.5 and p.under == -2.5

    @given(finite_errors, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a, b = over_under(values), over_under(shuffled)
        assert a.over == pytest.approx(b.over, rel=1e-12, abs=1e-12)
        assert a.under == pytest.approx(b.under, rel=1e-12, abs=1e-12)


class TestMetrics:
    def test_m1(self, errors):
        m = metrics(errors["m1"])
        assert m.mae == pytest.approx(0.8245, abs=5e-4)
        assert m.mse == pytest.approx(1.219, abs=5e-4)
        assert m.variance == pytest.approx(1.1228, abs=5e-4)

    def test_m2_unbiased(self, errors):
        m = metrics(errors["m2"])
        assert m.bias == pytest.approx(0.0, abs=1e-12)
        assert m.mae == pytest.approx(0.9944, abs=5e-4)
        assert m.mse == pytest.approx(1.7619, abs=5e-4)

    def test_constant_vector(self):
        m = metrics([3.0, 3.0, 3.0, 3.0])
        assert m.variance == 0.0
        assert m.bias == 3.0
        assert m.mse == 9.0

    def test_mmse_is_distance_to_heaven(self, errors, points):
        m = metrics(errors["m1"])
        p = points["m1"]
        assert m.mmse == pytest.approx(math.hypot(p.over, p.under), rel=1e-12)

    @given(finite_errors)
    @settings(max_examples=200, deadline=None)
    def test_mse_decomposition(self, values):
        m = metrics(values)
        assert m.mse == pytest.approx(m.variance + m.bias**2, rel=1e-12, abs=1e-12)

    @given(finite_errors)
    @settings(max_examples=200, deadline=None)
    def test_mae_ties_to_point(self, values):
        m = metrics(values)
        p = over_under(values)
        assert p.over - p.under == pytest.approx(len(values) * m.mae, rel=1e-12, abs=1e-12)


class TestAsymmetricLoss:
    def test_symmetric_alpha_is_absolute_error(self):
        for predicted, actual_ in [(3.0, 5.0), (5.0, 3.0), (2.0, 2.0)]:
            assert asymmetric_loss(predicted, actual_, 0.5) == abs(predicted - actual_)

    def test_under_estimation_weighted(self):
        assert asymmetric_loss(3.0, 5.0, 0.8) == pytest.approx(3.2)

    def test_over_estimation_weighted(self):
        assert asymmetric_loss(5.0, 3.0, 0.8) == pytest.approx(0.8)

    def test_alpha_out_of_range(self):
        with pytest.raises(DataError):
            asymmetric_loss(1.0, 2.0, 1.5)
        with pytest.raises(DataError):
            asymmetric_loss(1.0, 2.0, -0.1)

    @given(
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_with_exact_zero_cases(self, predicted, actual_, alpha):
        loss = asymmetric_loss(predicted, actual_, alpha)
        assert loss >= 0.0
        if loss == 0.0 and predicted != actual_:
            weight = alpha if predicted < actual_ else 1.0 - alpha
            # a zero loss needs a zero weight, or the product underflowed
            assert weight == 0.0 or weight * abs(actual_ - predicted) == 0.0


class TestTotalLoss:
    def test_worked_losses(self, points):
        assert total_loss(points["m1"], 0.8) == pytest.approx(10.1092, abs=5e-4)
        assert total_loss(points["m3"], 0.8) == pytest.approx(6.1164, abs=5e-4)

    def test_symmetric_alpha_reduces_to_total_absolute_error(self, errors, points):
        m = metrics(errors["m1"])
        assert total_loss(points["m1"], 0.5) == pytest.approx(10 * m.mae, rel=1e-12)

    def test_extremes_are_free_at_their_alpha(self):
        under_extreme = RrocPoint(0.0, -math.inf)
        over_extreme = RrocPoint(math.inf, 0.0)
        assert total_loss(under_extreme, 0.0) == 0.0
        assert total_loss(over_extreme, 1.0) == 0.0
        assert total_loss(under_extreme, 0.5) == math.inf
        assert total_loss(over_extreme, 0.5) == math.inf
        assert best_point_for_alpha([under_extreme, RrocPoint(1.0, -1.0)], 0.5) == (RrocPoint(1.0, -1.0), 2.0)

    @given(finite_errors, st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_example_sum(self, values, alpha):
        e = np.asarray(values)
        point = over_under(e)
        summed = sum(asymmetric_loss(v, 0.0, alpha) for v in e)
        assert total_loss(point, alpha) == pytest.approx(summed, rel=1e-9, abs=1e-9)


class TestOperatingCondition:
    def test_slope(self):
        assert OperatingCondition(0.8).slope == pytest.approx(0.25)
        assert OperatingCondition(0.5).slope == 1.0
        assert OperatingCondition(0.0).slope == math.inf
        assert OperatingCondition(1.0).slope == 0.0

    def test_from_slope_round_trip(self):
        for alpha in [0.1, 0.25, 0.5, 0.9, 1.0]:
            oc = OperatingCondition(alpha)
            assert OperatingCondition.from_slope(oc.slope).alpha == pytest.approx(alpha)
        assert OperatingCondition.from_slope(math.inf).alpha == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            OperatingCondition(1.2)
        with pytest.raises(DataError):
            OperatingCondition.from_slope(-1.0)

    @pytest.mark.parametrize("slope", [10**400, 2**1024, np.inf], ids=["10**400", "2**1024", "np.inf"])
    def test_slope_beyond_the_float_range_gives_alpha_zero(self, slope):
        assert OperatingCondition.from_slope(slope).alpha == 0.0

    @pytest.mark.parametrize("slope", [-(10**400), math.nan, np.float64(-0.5)], ids=["-10**400", "nan", "-0.5"])
    def test_negative_or_nan_slope_rejected(self, slope):
        with pytest.raises(DataError, match="slope must be nonnegative"):
            OperatingCondition.from_slope(slope)

    @pytest.mark.parametrize("alpha", [0.5, np.float32(0.5), np.float64(0.5), Fraction(1, 2), np.int64(1), 0,
                                       np.True_],
                             ids=["float", "float32", "float64", "Fraction", "int64", "int", "np.True_"])
    def test_any_real_alpha_is_stored_as_float(self, alpha):
        oc = OperatingCondition(alpha)
        assert type(oc.alpha) is float and oc.alpha == float(alpha)

    @pytest.mark.parametrize("alpha", [np.float32(np.nan), np.float64(1.5), np.int64(-1), math.inf, "0.5", None])
    def test_nan_out_of_range_and_non_real_alpha_rejected(self, alpha):
        with pytest.raises(DataError, match=r"alpha must be in \[0, 1\]"):
            OperatingCondition(alpha)


class TestRrocPoint:
    def test_validation(self):
        with pytest.raises(DataError):
            RrocPoint(-1.0, 0.0)
        with pytest.raises(DataError):
            RrocPoint(0.0, 1.0)
        with pytest.raises(DataError):
            RrocPoint(math.nan, 0.0)

    def test_accepts_extremes(self):
        assert not RrocPoint(0.0, -math.inf).is_finite
        assert not RrocPoint(math.inf, 0.0).is_finite
        assert RrocPoint(0.0, -0.0).is_finite


# An int past the 4,300-digit limit of int-to-str conversion cannot be
# formatted into a message, and one past the float range cannot be tested
# with math.isnan; either is a package error whose message stays short.
@pytest.mark.parametrize("call, error", [
    (lambda: OperatingCondition(10**5000), DataError),
    (lambda: OperatingCondition.from_slope(-10**5000), DataError),
    (lambda: apply_shift([1.0], 10**5000), DataError),
    (lambda: segment_slopes(-10**5000), DataError),
    (lambda: segment_alpha(3, 10**5000), DataError),
    (lambda: total_loss(RrocPoint(1.0, -1.0), 10**5000), DataError),
    (lambda: RrocPoint(10**400, -1.0), DataError),
    (lambda: RunConfig(alphas=(10**5000,)), ConfigError),
    (lambda: generate_synthetic(0.0, 1.0, -10**5000, "random", 1), ConfigError),
], ids=["OperatingCondition", "from_slope", "apply_shift", "segment_slopes", "segment_alpha",
        "total_loss", "RrocPoint", "RunConfig", "generate_synthetic"])
def test_huge_int_is_a_package_error_with_a_short_message(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 120, str(info.value)


# A caller's single number goes through one conversion: a real number is the
# equal float, an int beyond the float range the infinity of its sign, and
# anything else is refused by the range check of the value it stands for.
@pytest.mark.parametrize("call", [
    lambda e: RrocPoint("1", 0.0),
    lambda e: RrocPoint(None, 0.0),
    lambda e: RrocPoint(1j, 0.0),
    lambda e: RrocPoint(np.array([1.0]), -1.0),
    lambda e: RrocPoint(math.inf, -1.0),
    lambda e: OperatingCondition.from_slope("1"),
    lambda e: OperatingCondition.from_slope(None),
    lambda e: hybrid_segment(over_under(e["m2"]), over_under(e["m4"])),
    lambda e: hybrid_segment(RrocPoint(1.0, -1.0), RrocPoint(2.0, -2.0)),
], ids=["RrocPoint-str", "RrocPoint-None", "RrocPoint-complex", "RrocPoint-array", "RrocPoint-inf-over",
        "from_slope-str", "from_slope-None", "hybrid_segment-m2-m4", "hybrid_segment-slope-minus-1"])
def test_hostile_single_number_is_a_data_error_with_a_short_message(call, errors):
    with pytest.raises(DataError) as info:
        call(errors)
    assert len(str(info.value)) < 120, str(info.value)


@pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5), np.int64(2), True, np.True_],
                         ids=["Fraction", "float32", "int64", "bool", "np.True_"])
def test_real_coordinate_is_stored_as_the_equal_float(value):
    point = RrocPoint(value, 0 - value)  # numpy has no unary minus for a bool
    assert type(point.over) is float and type(point.under) is float
    assert (point.over, point.under) == (float(value), -float(value))


def test_converted_points_feed_the_hull_and_the_best_point():
    hull = convex_hull({"a": RrocPoint(Fraction(1, 2), -1)})
    assert hull.over.dtype == hull.under.dtype == np.float64
    assert best_point_for_alpha(iter([RrocPoint(1.0, -1.0)]), 0.5) == (RrocPoint(1.0, -1.0), 2.0)
    assert RrocPoint(10**400, 0.0) == RrocPoint(math.inf, 0.0)
    assert RrocPoint(0, -10**400) == RrocPoint(0.0, -math.inf)


class WordShifts(NoShift):
    def shifts(self, curve, alphas):
        return ["x"] * len(alphas)


E = [1.0, -2.0, 0.5]


# Every array a caller hands in goes through one conversion: an input numpy
# cannot convert, a complex, non-finite or misshapen one, or an alpha outside
# [0, 1] is a package error, never numpy's exception or a NaN result.
@pytest.mark.parametrize("call, error", [
    (lambda: over_under([10**400]), DataError),
    (lambda: metrics([10**400]), DataError),
    (lambda: rroc_curve([10**400]), DataError),
    (lambda: default_shift_grid([10**400]), DataError),
    (lambda: TrainedConstantShift([10**400]), DataError),
    (lambda: error_vector([10**400, 1.0], [1.0, 2.0]), DataError),
    (lambda: Dataset(actual=[10**400], predicted={"m": [1.0]}), DataError),
    (lambda: over_under_at(rroc_curve(E), 10**400), DataError),
    (lambda: cost_curve(E, NoShift(), [10**400]), DataError),
    (lambda: OptimalConstantShift().shifts(rroc_curve(E), [10**400]), DataError),
    (lambda: aoc_brute_force(E, [0.0, 10**400]), DataError),
    (lambda: apply_shift([10**400], 1.0), DataError),
    (lambda: over_under([[1.0], [1.0, 2.0]]), DataError),
    (lambda: error_vector(["x"], [1.0]), DataError),
    (lambda: over_under_at(rroc_curve(E), "x"), DataError),
    (lambda: cost_curve(E, WordShifts()), DataError),
    (lambda: error_density([[1.0, 2.0]]), DataError),
    (lambda: over_under([1 + 2j]), DataError),
    (lambda: over_under(np.array([1 + 2j])), DataError),
    (lambda: NoShift().shifts(rroc_curve(E), 0.5), DataError),
    (lambda: error_density([]), DataError),
    (lambda: OptimalConstantShift().shifts(rroc_curve(E), 0.5), DataError),
    (lambda: OptimalConstantShift().shifts(rroc_curve(E), [2.0]), DataError),
    (lambda: OptimalConstantShift().shifts(rroc_curve(E), [math.nan]), DataError),
    (lambda: apply_shift([math.nan], 1.0), DataError),
    (lambda: error_density([math.nan, 1.0]), DataError),
    (lambda: RunConfig(alphas=("0.5",)), ConfigError),
    (lambda: RunConfig(alphas=(None,)), ConfigError),
    (lambda: generate_synthetic(0.0, 10**400, 5, "random", 1), ConfigError),
    (lambda: generate_synthetic(0.0, 1.0, 2.5, "random", 1), ConfigError),
    (lambda: generate_synthetic(0.0, 1.0, 5, "random", 1.5), ConfigError),
    (lambda: generate_synthetic(0.0, -1.0, 5, "random", 1), ConfigError),
], ids=["over_under-huge", "metrics-huge", "rroc_curve-huge", "default_shift_grid-huge",
        "TrainedConstantShift-huge", "error_vector-huge", "Dataset-huge", "over_under_at-huge",
        "cost_curve-huge-alpha", "OptimalConstantShift-huge-alpha", "aoc_brute_force-huge-grid",
        "apply_shift-huge-prediction", "over_under-ragged", "error_vector-word", "over_under_at-word",
        "cost_curve-word-shifts", "error_density-2d", "over_under-complex", "over_under-complex-array",
        "NoShift-scalar-alpha", "error_density-empty", "OptimalConstantShift-scalar-alpha",
        "OptimalConstantShift-alpha-2", "OptimalConstantShift-nan-alpha", "apply_shift-nan-prediction",
        "error_density-nan", "RunConfig-str-alpha", "RunConfig-None-alpha", "generate_synthetic-huge-sigma",
        "generate_synthetic-float-n", "generate_synthetic-float-seed", "generate_synthetic-negative-sigma"])
def test_hostile_array_input_is_a_package_error_with_a_short_message(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 120, str(info.value)


@pytest.mark.parametrize("values", [["1.5", "-2"], [Fraction(3, 2), -2], np.array([1.5, -2.0], np.float32)],
                         ids=["numeric-strings", "Fraction", "float32"])
def test_what_numpy_converts_still_converts(values):
    assert over_under(values) == RrocPoint(1.5, -2.0)


def test_printable_values_keep_their_messages():
    with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
        generate_synthetic(0.0, 1.0, np.int64(0), "random", 1)
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        generate_synthetic(0.0, 1.0, 5, "random", np.int64(-1))
    bad = [1.0 + i / 7 for i in range(1, 9)]
    with pytest.raises(ConfigError) as info:
        RunConfig(alphas=(0.5, *bad))
    assert str(info.value) == f"alpha values outside [0, 1]: {bad!r}"


BIG = RrocPoint(1.7e308, -1.7e308)


# One overflow rule: a result computed from finite inputs that leaves the float
# range is a DataError ending "to non-finite values; rescale the input" (an
# RROC sweep's coordinates included), and no numpy warning is printed on the way.
@pytest.mark.parametrize("call", [
    lambda: over_under([1e308, 1e308]),
    lambda: metrics([1e160, 1.0]),
    lambda: apply_shift([1e308], 1e308),
    lambda: rroc_curve([1e308, -1e308]),
    lambda: optimal_constant_shift([1e308, -1e308], 0.5),
    lambda: cost_curve([1e308, -1e308], OptimalConstantShift()),
    lambda: TrainedConstantShift([1e308, -1e308]),
    lambda: aoc(rroc_curve([1e200, -1e200, 3e200])),
    lambda: default_shift_grid([1e308, -1e308]),
    lambda: aoc_brute_force([1e308, -1e308]),
    lambda: error_density([1e308, -1e308]),
    lambda: total_loss(BIG, 0.5),
    lambda: isometric_through(BIG, 0.5),
    lambda: best_point_for_alpha([BIG], 0.5),
    lambda: best_point_for_alpha([RrocPoint(0.0, -math.inf), BIG], 0.5),
    lambda: asymmetric_loss(1e308, -1e308, 0.5),
], ids=["over_under", "metrics", "apply_shift", "rroc_curve", "optimal_constant_shift",
        "cost_curve-optimal", "TrainedConstantShift", "aoc", "default_shift_grid", "aoc_brute_force",
        "error_density", "total_loss", "isometric_through", "best_point_for_alpha",
        "best_point_for_alpha-beside-an-extreme", "asymmetric_loss"])
def test_overflow_from_finite_inputs_is_a_data_error_without_warnings(call, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="to non-finite values; rescale the input$"):
            call()
    assert capfd.readouterr() == ("", "")
