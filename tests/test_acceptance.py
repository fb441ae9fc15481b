"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one `criterion NN PASS/FAIL` line (run with `pytest -s`
or execute this file directly). Criteria 1-8 are golden-number checks against
the worked 10-example models, 9-14 are seeded property suites with 1000 cases
each, 15 is the seeded statistical check. Runtime budgets are asserted at the
end: goldens < 1 s, properties < 30 s, statistical < 5 s.
"""

import time
from collections import Counter

import numpy as np

from rroc import (
    NoShift,
    OptimalConstantShift,
    aoc,
    aoc_brute_force,
    convex_hull,
    cost_curve,
    error_vector,
    hybrid_segment,
    is_convex,
    isometric_through,
    metrics,
    optimal_constant_shift,
    over_under,
    rroc_curve,
    total_loss,
)
from rroc.synth import generate_synthetic

try:
    from tests.conftest import ACTUAL, PREDICTED
except ImportError:  # executed directly as a script from the tests directory
    from conftest import ACTUAL, PREDICTED

ERRORS = {m: error_vector(p, ACTUAL) for m, p in PREDICTED.items()}
POINTS = {m: over_under(e) for m, e in ERRORS.items()}

DURATIONS = {"golden": 0.0, "property": 0.0, "statistical": 0.0}


class Criterion:
    def __init__(self, number, title, group):
        self.number = number
        self.title = title
        self.group = group
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def close(self, abs_tol, computed, expected, label):
        self.check(
            abs(computed - expected) <= abs_tol,
            f"{label}: got {computed!r}, want {expected!r} +-{abs_tol}",
        )

    def conclude(self):
        DURATIONS[self.group] += time.perf_counter() - self.started
        status = "FAIL" if self.failures else "PASS"
        print(f"criterion {self.number:2d} {status}: {self.title}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def _uniform_vector(rng, n_low=2, n_high=64):
    n = int(rng.integers(n_low, n_high + 1))
    return rng.uniform(-10.0, 10.0, n)


def test_criterion_01_model_one_metrics():
    c = Criterion(1, "m1 golden numbers (OVER 2.569, UNDER -5.676, MAE, MSE)", "golden")
    p, m = POINTS["m1"], metrics(ERRORS["m1"])
    c.close(5e-4, p.over, 2.569, "OVER")
    c.close(5e-4, p.under, -5.676, "UNDER")
    # table-exact MAE is 0.8245; the printed 0.825 is a rounded half
    c.close(5e-4, m.mae, 0.8245, "MAE")
    c.close(5e-4, m.mse, 1.219, "MSE")
    c.conclude()


def test_criterion_02_model_two_metrics():
    c = Criterion(2, "m2 golden numbers (unbiased, OVER = -UNDER = 4.972)", "golden")
    p, m = POINTS["m2"], metrics(ERRORS["m2"])
    c.close(5e-4, p.over, 4.972, "OVER")
    c.close(5e-4, p.under, -4.972, "UNDER")
    c.close(5e-4, m.bias, 0.0, "bias")
    c.close(5e-4, m.mae, 0.9944, "MAE")
    c.close(5e-4, m.mse, 1.7619, "MSE")
    c.conclude()


def test_criterion_03_model_three_metrics():
    c = Criterion(3, "m3 golden numbers (OVER 10.431, UNDER -1.215, MAE, MSE)", "golden")
    p, m = POINTS["m3"], metrics(ERRORS["m3"])
    c.close(5e-4, p.over, 10.431, "OVER")
    c.close(5e-4, p.under, -1.215, "UNDER")
    c.close(5e-4, m.mae, 1.165, "MAE")
    # table-exact MSE is 2.1279374 (display truncates to 2.12)
    c.close(5e-3, m.mse, 2.1279374, "MSE")
    c.conclude()


def test_criterion_04_losses_and_isometric_at_08():
    c = Criterion(4, "total losses at alpha 0.8 and the isometric through m3", "golden")
    c.close(5e-4, total_loss(POINTS["m1"], 0.8), 10.1092, "loss m1")
    c.close(5e-4, total_loss(POINTS["m3"], 0.8), 6.1164, "loss m3")
    iso = isometric_through(POINTS["m3"], 0.8)
    c.close(5e-4, iso.slope, 0.25, "isometric slope")
    c.close(5e-4, iso.intercept, -3.82275, "isometric intercept")
    c.conclude()


def test_criterion_05_hybrid_m1_m3():
    c = Criterion(5, "hybrid m1-m3: slope 0.567, crossover 0.638, level 4.551", "golden")
    seg = hybrid_segment(POINTS["m1"], POINTS["m3"])
    c.close(5e-3, seg.slope, 0.567, "slope")
    c.close(5e-3, seg.crossover_alpha, 0.638, "crossover alpha")
    c.close(5e-3, seg.crossover_loss, 4.551, "crossover level")
    la = total_loss(POINTS["m1"], seg.crossover_alpha)
    lb = total_loss(POINTS["m3"], seg.crossover_alpha)
    c.check(abs(la - lb) <= 1e-9 * max(la, lb), f"equal losses at crossover: {la} vs {lb}")
    c.conclude()


def test_criterion_06_areas_and_variances():
    c = Criterion(6, "AOC 56.1387/88.0933/63.9295 and the variance identity", "golden")
    expected_aoc = {"m1": 56.1387, "m2": 88.0933, "m3": 63.9295}
    expected_var = {"m1": 1.1228, "m2": 1.7619, "m3": 1.2786}
    for m in ("m1", "m2", "m3"):
        area = aoc(rroc_curve(ERRORS[m]))
        c.close(5e-4, area, expected_aoc[m], f"AOC {m}")
        c.close(5e-4, metrics(ERRORS[m]).variance, expected_var[m], f"variance {m}")
    m2 = metrics(ERRORS["m2"])
    area2 = aoc(rroc_curve(ERRORS["m2"]))
    identity = m2.mse * 100 / 2
    c.check(
        abs(area2 - identity) <= 1e-12 * identity,
        f"unbiased m2: AOC {area2} vs MSE*n^2/2 {identity}",
    )
    c.conclude()


def test_criterion_07_tied_vertices():
    c = Criterion(7, "m4 ties collapse to 5 distinct visible vertices", "golden")
    distinct = rroc_curve(ERRORS["m4"]).distinct_vertices()
    c.check(len(distinct) == 5, f"distinct vertices: {len(distinct)}")
    c.conclude()


def test_criterion_08_hulls():
    c = Criterion(8, "point hull drops m2; curve hull has 12 points (6,3,3)", "golden")
    point_hull = convex_hull({m: POINTS[m] for m in ("m1", "m2", "m3")})
    ids = [hp.model_id for hp in point_hull.finite_points]
    c.check(ids == ["m1", "m3"], f"point-level hull members: {ids}")

    curves = {m: rroc_curve(ERRORS[m], m) for m in ("m1", "m2", "m3")}
    finite = convex_hull(curves).finite_points
    count = len(finite)
    c.check(11 <= count <= 13, f"curve-level hull size: {count}")
    if count == 12:
        provenance = Counter(hp.model_id for hp in finite)
        c.check(
            provenance == {"m1": 6, "m3": 3, "m2": 3},
            f"hull provenance: {dict(provenance)}",
        )
    c.conclude()


def test_criterion_09_area_equals_variance():
    c = Criterion(9, "AOC = variance*n^2/2 on 1000 random vectors (rel 1e-9)", "property")
    rng = np.random.default_rng(9)
    for _ in range(1000):
        e = _uniform_vector(rng)
        n = e.size
        expected = float(np.var(e)) * n * n / 2.0
        area = aoc(rroc_curve(e))
        c.check(
            abs(area - expected) <= 1e-9 * max(expected, 1e-12),
            f"n={n}: AOC {area} vs {expected}",
        )
        if c.failures:
            break
    c.conclude()


def test_criterion_10_shift_invariance():
    c = Criterion(10, "AOC invariant under constant shifts (rel 1e-9)", "property")
    rng = np.random.default_rng(10)
    for _ in range(1000):
        e = _uniform_vector(rng)
        shift = float(rng.uniform(-100.0, 100.0))
        base = aoc(rroc_curve(e))
        moved = aoc(rroc_curve(e + shift))
        c.check(
            abs(moved - base) <= 1e-9 * max(base, 1e-12),
            f"shift {shift}: {moved} vs {base}",
        )
        if c.failures:
            break
    c.conclude()


def _on_polyline(overs, unders, o, u, tol=1e-9):
    scale = max(1.0, abs(o), abs(u))
    if o <= overs[0]:
        return abs(o - overs[0]) <= tol * scale and u <= unders[0] + tol * scale
    if o >= overs[-1]:
        return abs(u - unders[-1]) <= tol * scale
    k = int(np.searchsorted(overs, o))
    o0, o1 = overs[k - 1], overs[k]
    u0, u1 = unders[k - 1], unders[k]
    if o1 == o0:
        return min(u0, u1) - tol * scale <= u <= max(u0, u1) + tol * scale
    predicted = u0 + (o - o0) * (u1 - u0) / (o1 - o0)
    return abs(u - predicted) <= tol * scale


def test_criterion_11_sweep_equivalence():
    c = Criterion(11, "200 random shifts per vector land on the curve polyline", "property")
    rng = np.random.default_rng(11)
    for _ in range(1000):
        e = _uniform_vector(rng)
        curve = rroc_curve(e)
        overs, unders = curve.over, curve.under
        span = e.max() - e.min() + 1.0
        shifts = rng.uniform(-e.max() - span, -e.min() + span, 200)
        t = e[None, :] + shifts[:, None]
        os = np.where(t > 0, t, 0.0).sum(axis=1)
        us = np.where(t < 0, t, 0.0).sum(axis=1)
        for o, u in zip(os, us):
            if not _on_polyline(overs, unders, float(o), float(u)):
                c.check(False, f"point ({o}, {u}) off the polyline")
                break
        if c.failures:
            break
    c.conclude()


def test_criterion_12_convexity_and_slopes():
    c = Criterion(12, "convexity and the slope ladder on distinct-error curves", "property")
    rng = np.random.default_rng(12)
    for _ in range(1000):
        # resample until adjacent gaps are measurable at float precision
        while True:
            e = _uniform_vector(rng)
            gaps = np.diff(np.sort(e))
            if gaps.size and gaps.min() > 1e-4:
                break
        curve = rroc_curve(e)
        n = curve.n
        c.check(is_convex(curve), f"n={n}: curve not convex")
        ov, un = curve.over, curve.under
        measured = (un[1:] - un[:-1]) / (ov[1:] - ov[:-1])
        expected = (n - 1 - np.arange(n - 1)) / (np.arange(n - 1) + 1)
        ok = np.allclose(measured, expected, rtol=1e-9, atol=1e-9)
        c.check(ok, f"n={n}: slopes {measured} vs {expected}")
        if c.failures:
            break
    c.conclude()


def test_criterion_13_optimal_shift_oracle():
    c = Criterion(13, "optimal shift beats exhaustive scans; optimal <= none cost", "property")
    rng = np.random.default_rng(13)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(1000):
        e = _uniform_vector(rng, n_high=48)
        alpha = float(rng.uniform(0.0, 1.0))
        _, loss = optimal_constant_shift(e, alpha)
        q = np.sort(e)
        candidates = np.concatenate(
            (-q, -(q[:-1] + q[1:]) / 2.0, rng.uniform(-q[-1] - 1, -q[0] + 1, 10))
        )
        t = e[None, :] + candidates[:, None]
        scan = (
            2 * (1 - alpha) * np.where(t > 0, t, 0.0).sum(axis=1)
            - 2 * alpha * np.where(t < 0, t, 0.0).sum(axis=1)
        )
        c.check(
            loss <= scan.min() + 1e-9,
            f"optimal {loss} beaten by scan {scan.min()} at alpha {alpha}",
        )

        none_losses = cost_curve(e, NoShift(), grid).losses
        optimal_losses = cost_curve(e, OptimalConstantShift(), grid).losses
        c.check(
            bool(np.all(optimal_losses <= none_losses + 1e-9)),
            "optimal cost curve exceeds the none curve",
        )
        if c.failures:
            break
    c.conclude()


def test_criterion_14_brute_force_area_oracle():
    c = Criterion(14, "pointwise sweep oracle matches trapezoid AOC (rel 1e-3)", "property")
    rng = np.random.default_rng(14)
    for _ in range(1000):
        e = _uniform_vector(rng, n_high=40)
        n = e.size
        span = e.max() - e.min()
        step = span / (10 * n * n)
        grid = np.arange(-e.max() - span, -e.min() + span + step, step)
        approx = aoc_brute_force(e, grid)
        exact = aoc(rroc_curve(e))
        c.check(
            abs(approx - exact) <= 1e-3 * max(exact, 1e-12),
            f"n={n}: oracle {approx} vs {exact}",
        )
        if c.failures:
            break
    c.conclude()


def test_criterion_15_synthetic_statistical_bands():
    c = Criterion(15, "synthetic normal(0, 0.01) n=1000: identity + bands", "statistical")
    for seed in range(100, 120):
        ds = generate_synthetic(0.0, 0.01, 1000, "constant-mean", seed=seed)
        e = ds.errors("constant-mean")
        area = aoc(rroc_curve(e))
        identity = float(np.var(e)) * 1e6 / 2.0
        c.check(
            abs(area - identity) <= 1e-9 * identity,
            f"seed {seed}: AOC {area} vs variance identity {identity}",
        )
        c.check(45.0 <= area <= 55.0, f"seed {seed}: constant-mean AOC {area} outside [45, 55]")

        noisy = generate_synthetic(0.0, 0.01, 1000, "actual-plus-noise", seed=seed)
        noise_area = aoc(rroc_curve(noisy.errors("actual-plus-noise")))
        c.check(
            40.0 <= noise_area <= 60.0,
            f"seed {seed}: actual-plus-noise AOC {noise_area} outside [40, 60]",
        )
    c.conclude()


def test_runtime_budgets():
    golden, prop, stat = DURATIONS["golden"], DURATIONS["property"], DURATIONS["statistical"]
    print(
        f"runtime: golden {golden:.2f}s (<1s), properties {prop:.2f}s (<30s), "
        f"statistical {stat:.2f}s (<5s)"
    )
    assert golden < 1.0
    assert prop < 30.0
    assert stat < 5.0


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"  {exc}")
    raise SystemExit(1 if failed else 0)
