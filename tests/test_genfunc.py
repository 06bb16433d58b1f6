from __future__ import annotations

import math
import random
import time
import warnings

import pytest

from cbsbounds import (
    approx_linear,
    contribution_multiple,
    contribution_single,
    crossover_ratio,
    eval_exact,
    eval_G,
    eval_H,
    eval_H_partials,
    expand_series,
    hessian_det,
    log2_of_int,
    multiple_point_constant,
    single_point_growth_base,
    solve_critical_points,
)
from cbsbounds.genfunc import GOLDEN_RATIO, q1, q2
from oracles import finite_difference_partials

SQRT5 = math.sqrt(5.0)


class TestSeries:
    def test_constant_term(self):
        assert expand_series(0, 0)[0][0] == 1

    def test_axis_rows_are_ones(self):
        series = expand_series(30, 0)
        assert all(series[r][0] == 1 for r in range(31))

    def test_first_coefficients_match_recurrence(self):
        series = expand_series(6, 4)
        assert series[1][1] == 3
        assert series[2][1] == 5
        for r in range(7):
            for s in range(5):
                assert series[r][s] == eval_exact(r, s)

    def test_rejects_negative_caps(self):
        with pytest.raises(ValueError):
            expand_series(-1, 2)

    def test_cell_limit_refuses_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1000000-cell limit"):
            expand_series(10**6, 10**6)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ValueError, match="1000000-cell limit"):
            expand_series(10**6, 0)  # one cell over


class TestPartials:
    def test_values_at_unit_point(self):
        p = eval_H_partials(1.0, 1.0)
        assert p.h == pytest.approx(0.0, abs=1e-15)
        assert p.hxx == pytest.approx(0.0, abs=1e-15)
        assert p.hyy == pytest.approx(0.0, abs=1e-15)
        assert p.hxy == pytest.approx(-1.0, abs=1e-15)

    def test_golden_point_on_variety(self):
        x1 = (SQRT5 - 1.0) / 2.0
        assert eval_H(x1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = random.Random(97)
        for _ in range(100):
            x, y = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            p = eval_H_partials(x, y)
            fd = finite_difference_partials(x, y)
            for closed, approx in zip((p.hx, p.hy, p.hxx, p.hyy, p.hxy), fd):
                assert abs(approx - closed) <= 1e-6 * max(abs(closed), 1e-9)


class TestCriticalPoints:
    def test_fixed_points_always_present(self):
        points = solve_critical_points(6, 5)
        assert [p.label for p in points] == ["q1", "q2"]
        assert points[0].x == pytest.approx((SQRT5 - 1.0) / 2.0)
        assert points[0].y == 1.0
        assert (points[1].x, points[1].y) == (1.0, 1.0)
        assert all(p.kind == "multiple" for p in points)

    def test_smooth_point_closed_form(self):
        points = solve_critical_points(30, 10)
        q3 = points[2]
        assert (q3.x, q3.y) == (0.5, 2.0)
        assert q3.kind == "single"

    def test_smooth_point_missing_at_double_ratio(self):
        # the list shows the absence; nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = solve_critical_points(20, 10)
        assert [p.label for p in points] == ["q1", "q2"]

    def test_system_residuals(self):
        for r, s in ((21, 10), (100, 7), (999, 450)):
            points = solve_critical_points(r, s)
            for p in points:
                parts = eval_H_partials(p.x, p.y)
                assert abs(parts.h) <= 1e-9
                lhs = s * p.x * parts.hx
                rhs = r * p.y * parts.hy
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, float(r))


class TestContributions:
    def test_unit_point_contributes_one(self):
        for r, s in ((1, 1), (50, 20), (1000, 3)):
            assert contribution_multiple(q2(), r, s).log2 == pytest.approx(
                0.0, abs=1e-12
            )

    def test_golden_point_intermediates(self):
        g1 = eval_G(q1().x, q1().y)
        assert g1 == pytest.approx(SQRT5 - 1.0, abs=1e-12)
        assert hessian_det(q1().x, q1().y) == pytest.approx(
            (15.0 * SQRT5 - 35.0) / 2.0, abs=1e-12
        )
        assert hessian_det(1.0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_golden_point_contribution(self):
        const = 4.0 / (3.0 * SQRT5 - 5.0)
        got = contribution_multiple(q1(), 1, 0).log2
        assert got == pytest.approx(math.log2(const * GOLDEN_RATIO), abs=1e-9)
        assert multiple_point_constant() == pytest.approx(const, abs=1e-9)

    def test_kind_mismatch_rejected(self):
        points = solve_critical_points(30, 10)
        with pytest.raises(ValueError):
            contribution_single(q1(), 30, 10)
        with pytest.raises(ValueError):
            contribution_multiple(points[2], 30, 10)

    def test_smooth_point_finite_positive(self):
        points = solve_critical_points(30, 10)
        value = contribution_single(points[2], 30, 10)
        assert math.isfinite(value.log2)
        assert value.log2 > 0

    def test_smooth_point_tracks_exact_dp(self):
        n, s = 10, 50
        points = solve_critical_points(n * s, s)
        approx = contribution_single(points[2], n * s, s).log2
        exact = log2_of_int(eval_exact(n * s, s))
        assert abs(approx - exact) <= 0.05 * exact

    def test_growth_factor_approaches_base(self):
        def t3(s):
            points = solve_critical_points(10 * s, s)
            return contribution_single(points[2], 10 * s, s).log2

        base = math.log2(9**9 / 8**8)
        step = t3(1000) - t3(999)
        # the remaining deviation is the 0.5*log2(s/(s-1)) prefactor decay
        assert abs(step - base) <= 1e-3
        assert abs(t3(4000) - t3(3999) - base) < abs(t3(40) - t3(39) - base)
        assert single_point_growth_base(10) == pytest.approx(base)


class TestLinearProfile:
    def test_crossover_value(self):
        n0 = crossover_ratio()
        assert n0 == pytest.approx(3.618033, abs=1e-5)
        # defining equality: growth base equals phi**n at the crossover
        lhs = (n0 - 1) * math.log2(n0 - 1) - (n0 - 2) * math.log2(n0 - 2)
        assert lhs == pytest.approx(n0 * math.log2(GOLDEN_RATIO), abs=1e-9)

    def test_golden_regime_rate(self):
        # below the crossover the value grows like phi**(n s)
        rate = approx_linear(2, 200).log2 / 400.0
        assert rate == pytest.approx(math.log2(GOLDEN_RATIO), abs=0.01)
        far = abs(approx_linear(2, 20).log2 / 40.0 - math.log2(GOLDEN_RATIO))
        near = abs(rate - math.log2(GOLDEN_RATIO))
        assert near < far

    def test_golden_regime_matches_exact(self):
        exact = log2_of_int(eval_exact(2 * 120, 120))
        approx = approx_linear(2, 120).log2
        assert abs(approx - exact) <= 0.05 * exact

    def test_smooth_regime_under_cap(self):
        assert approx_linear(10, 100).log2 <= 100 * math.log2(math.e * 10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            approx_linear(0, 5)
        with pytest.raises(ValueError):
            approx_linear(3, 0)
