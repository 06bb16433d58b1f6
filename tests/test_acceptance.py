"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are computed by the independent oracles in oracles.py or by
closed-form constants; nothing here is copied from the implementation under
test. Criteria with stated runtime budgets assert them loosely.
"""

from __future__ import annotations

import math
import random
import time

from cbsbounds import (
    BoundInputs,
    Instance,
    build_mdd,
    compare,
    contribution_multiple,
    contribution_single,
    empirical_bound_check,
    eval_exact,
    eval_H_partials,
    eval_G,
    eval_log,
    expand_series,
    hessian_det,
    log2_of_int,
    mdd_size,
    analytic_size_bound,
    radius,
    solve,
    solve_critical_points,
    validate,
)
from cbsbounds.genfunc import q1, q2
from conftest import open_grid
from oracles import (
    finite_difference_partials,
    joint_bfs_makespan,
    recurrence_log2_floor,
    recurrence_table,
)

SQRT5 = math.sqrt(5.0)

# reference display exponents recorded for the standard benchmark rows:
# (name, n, k, C, org_exp10, rec_ind_exp10, rec_gf_exp10)
#
# A REC+GF entry bounds T(knC, kC) from above, and T(r, s) >= C(r-s, s) (proof
# in oracles.recurrence_log2_floor), so no correct entry can lie below
# ceil(log10(log2 C(kC(n-1), kC))). On every row that floor equals the display
# exponent of (e*n)^(kC); the room rows record one more, which the floor does
# not refute.
TABLE_ROWS = [
    ("warehouse-a", 9776, 8, 120, 7, 5, 5),
    ("warehouse-b", 9776, 64, 140, 8, 6, 6),
    ("warehouse-c", 38756, 128, 250, 10, 7, 6),
    ("warehouse-d", 38756, 256, 250, 10, 7, 7),
    ("room-a", 206642, 8, 400, 9, 6, 6),
    ("room-b", 206642, 8, 500, 9, 6, 6),
    ("empty-a", 2304, 64, 70, 8, 6, 5),
    ("empty-b", 2304, 128, 80, 8, 7, 6),
    ("random-a", 3687, 64, 100, 8, 6, 5),
    ("random-b", 3687, 128, 100, 8, 7, 6),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_series_equals_recurrence():
    t0 = time.time()
    series = expand_series(40, 20)
    table = recurrence_table(40, 20)
    mismatches = [
        (r, s)
        for r in range(41)
        for s in range(21)
        if series[r][s] != table[r][s]
    ]
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60
    report(1, ok, f"series == recurrence on 41x21 grid in {elapsed:.2f}s")
    assert not mismatches
    assert elapsed < 60


def test_criterion_02_induction_dominance():
    t0 = time.time()
    violations = [
        (r, s)
        for r in range(1, 301)
        for s in range(1, 41)
        if eval_exact(r, s) > 3 * r**s
    ]
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120
    report(2, ok, f"T(r,s) <= 3*r^s on 300x40 grid in {elapsed:.2f}s")
    assert not violations
    assert elapsed < 120


def test_criterion_03_closed_form_identities():
    bad_rows = [r for r in range(10_001) if eval_exact(r, 0) != 1]
    bad_cols = [s for s in range(0, 41) if eval_exact(0, s) != 1]
    bad_ones = [s for s in range(1, 41) if eval_exact(1, s) != 3]
    bad_linear = [r for r in range(1, 10_001) if eval_exact(r, 1) != 2 * r + 1]
    ok = not (bad_rows or bad_cols or bad_ones or bad_linear)
    report(3, ok, "T(r,0)=T(0,s)=1, T(1,s)=3, T(r,1)=2r+1 up to r=10^4")
    assert ok


def test_criterion_04_constant_reproduction():
    checks = {
        "G(q1)": (eval_G(q1().x, q1().y), SQRT5 - 1.0),
        "D(q1)": (hessian_det(q1().x, q1().y), (15.0 * SQRT5 - 35.0) / 2.0),
        "D(q2)": (hessian_det(1.0, 1.0), -1.0),
        "const": (
            2.0 ** contribution_multiple(q1(), 0, 0).log2,
            4.0 / (3.0 * SQRT5 - 5.0),
        ),
        "T(q2)": (2.0 ** contribution_multiple(q2(), 17, 5).log2, 1.0),
    }
    bad = {
        name: (got, want)
        for name, (got, want) in checks.items()
        if abs(got - want) > 1e-9
    }
    report(4, not bad, f"five closed-form constants to 1e-9 {bad or ''}")
    assert not bad


def test_criterion_05_partials_match_finite_differences():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        x, y = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        p = eval_H_partials(x, y)
        fd = finite_difference_partials(x, y)
        for closed, approx in zip((p.hx, p.hy, p.hxx, p.hyy, p.hxy), fd):
            rel = abs(approx - closed) / max(abs(closed), 1e-9)
            worst = max(worst, rel)
    ok = worst <= 1e-6
    report(5, ok, f"worst relative error {worst:.3g} over 1000 points")
    assert ok


def test_criterion_06_asymptotic_tightness():
    t0 = time.time()

    def gap(s: int) -> float:
        exact = log2_of_int(eval_exact(10 * s, s))
        points = solve_critical_points(10 * s, s)
        approx = contribution_single(points[-1], 10 * s, s).log2
        return abs(exact - approx) / exact

    g20, g200 = gap(20), gap(200)
    cross_ok = True
    for s in (20, 40, 60):
        exact = log2_of_int(eval_exact(10 * s, s))
        approx = eval_log(10 * s, s).log2
        cross_ok &= abs(approx - exact) <= 1e-6 * max(1.0, exact)
    elapsed = time.time() - t0
    ok = g200 <= 0.05 and g200 < g20 and cross_ok and elapsed < 120
    report(
        6,
        ok,
        f"gap(s=20)={g20:.2e}, gap(s=200)={g200:.2e}, backends agree, {elapsed:.1f}s",
    )
    assert g200 <= 0.05
    assert g200 < g20
    assert cross_ok
    assert elapsed < 120


def test_criterion_07_linear_profile_sandwich():
    violations = []
    for n in range(4, 33):
        for s in range(3, 61):
            if log2_of_int(eval_exact(n * s, s)) > s * math.log2(math.e * n) + 1e-9:
                violations.append((n, s))
    report(7, not violations, "log2 T(ns,s) <= s*log2(e*n) on {4..32}x{3..60}")
    assert not violations


def test_criterion_08_benchmark_table_reproduction():
    t0 = time.time()
    failures = []
    for name, n, k, c, org_p, ind_p, gf_p in TABLE_ROWS:
        rep = compare(BoundInputs(n=n, k=k, C=c))
        if rep["org_exp10"] != org_p:
            failures.append(f"{name}: org exp {rep['org_exp10']} != {org_p}")
        if abs(rep["rec_ind_exp10"] - ind_p) > 1:
            failures.append(f"{name}: rec_ind exp {rep['rec_ind_exp10']} vs {ind_p}")
        if abs(rep["rec_gf_exp10"] - gf_p) > 1:
            failures.append(f"{name}: rec_gf exp {rep['rec_gf_exp10']} vs {gf_p}")
        floor = recurrence_log2_floor(k * n * c, k * c)
        if rep["rec_gf_log2"] < floor:
            failures.append(f"{name}: rec_gf log2 {rep['rec_gf_log2']} < floor {floor}")
        floor_exp = math.ceil(math.log10(floor))
        if gf_p < floor_exp:
            failures.append(f"{name}: recorded rec_gf exp {gf_p} < floor exp {floor_exp}")
    row1 = compare(BoundInputs(n=9776, k=8, C=120))
    ratio_ok = row1["ratio_log2"] >= 10**6.9
    elapsed = time.time() - t0
    ok = not failures and ratio_ok and elapsed < 1.0
    report(8, ok, f"{len(failures)} exponent or floor failures; ratio ok={ratio_ok}")
    assert ratio_ok
    assert elapsed < 1.0
    assert not failures, "; ".join(failures)


def test_criterion_09_mdd_bounds_and_radius():
    t0 = time.time()
    layer_bad, size_bad = [], []
    for cost in range(2, 21):
        grid = open_grid(2 * cost + 1)
        center = (cost, cost)
        diagram = build_mdd(grid, center, center, cost)
        for t in range(cost // 2 + 1):
            if len(diagram.layers[t]) != 2 * t * (t + 1) + 1:
                layer_bad.append((cost, t))
        exact = mdd_size(diagram)[0]
        if exact > analytic_size_bound(cost) + (cost // 2 + 1):
            size_bad.append(cost)
    radius_bad = [m for m in (3, 5, 7, 9) if radius(open_grid(m))[0] != m - 1]
    elapsed = time.time() - t0
    ok = not (layer_bad or size_bad or radius_bad) and elapsed < 60
    report(9, ok, f"layers, totals (C in 2..20), radii in {elapsed:.2f}s")
    assert not layer_bad and not size_bad and not radius_bad
    assert elapsed < 60


def _check_one_instance(instance) -> int:
    oracle = joint_bfs_makespan(
        instance.map,
        [s for s, _ in instance.agents],
        [g for _, g in instance.agents],
    )
    assert oracle is not None
    for splitting in ("classic", "disjoint"):
        paths, stats = solve(instance, splitting)
        assert stats.optimal_cost == oracle
        assert validate(instance, paths) is None
        empirical_bound_check(instance, stats)  # raises on violation
    return oracle


def test_criterion_10_solver_optimality_suite():
    t0 = time.time()
    grid3 = open_grid(3)
    cells = list(grid3.cells())
    count = 0
    for s1 in cells:
        for s2 in cells:
            if s2 == s1:
                continue
            for g1 in cells:
                for g2 in cells:
                    if g2 == g1:
                        continue
                    _check_one_instance(Instance(grid3, ((s1, g1), (s2, g2))))
                    count += 1
    grid4 = open_grid(4)
    cells4 = list(grid4.cells())
    rng = random.Random(2024)
    randomized = 0
    while randomized < 50:
        s1, s2 = rng.sample(cells4, 2)
        g1, g2 = rng.sample(cells4, 2)
        _check_one_instance(Instance(grid4, ((s1, g1), (s2, g2))))
        randomized += 1
    elapsed = time.time() - t0
    ok = count == 72 * 72 and randomized == 50 and elapsed < 300
    report(
        10,
        ok,
        f"{count} exhaustive 3x3 + {randomized} random 4x4 instances in {elapsed:.1f}s",
    )
    assert count == 72 * 72
    assert elapsed < 300
