#!/usr/bin/env python3
"""The generating-function view of the recurrence, end to end.

1. The series expansion of the rational form reproduces the recurrence table.
2. The critical-point system has two fixed multiple points and, for budget
   ratios above two, one smooth point with a closed form.
3. Each point's contribution is evaluated; along the linear profile r = n*s
   the smooth point takes over from golden-ratio growth at n0 ~ 3.618, and for
   n = 10 it tracks the exact recurrence to a fraction of a percent.
"""

import math

from cbsbounds import (
    approx_linear,
    contribution_multiple,
    contribution_single,
    crossover_ratio,
    eval_exact,
    expand_series,
    log2_of_int,
    multiple_point_constant,
    solve_critical_points,
)


def main() -> None:
    series = expand_series(10, 6)
    agree = all(
        series[r][s] == eval_exact(r, s)
        for r in range(11)
        for s in range(7)
    )
    print(f"series coefficients == recurrence values on 11x7 grid: {agree}")

    r, s = 30, 10
    print(f"\ncritical points for budgets (r, s) = ({r}, {s}):")
    points = solve_critical_points(r, s)
    for p in points:
        if p.kind == "multiple":
            value = contribution_multiple(p, r, s)
        else:
            value = contribution_single(p, r, s)
        print(
            f"  {p.label} ({p.kind:8s}) at ({p.x:.6f}, {p.y:.6f}) "
            f"contributes log2 = {value.log2:.4f}"
        )
    print(f"  golden-ratio prefactor constant = {multiple_point_constant():.6f}")

    print(f"\ncrossover ratio n0 = {crossover_ratio():.6f}")

    print("\nlinear profile r = 10 s: approximation vs exact recurrence")
    print(f"{'s':>5} {'log2 T':>12} {'approx':>12} {'rel gap':>10}")
    for s in (10, 20, 50, 100, 200):
        exact = log2_of_int(eval_exact(10 * s, s))
        approx = approx_linear(10, s).log2
        print(f"{s:>5} {exact:>12.3f} {approx:>12.3f} {abs(exact - approx) / exact:>10.2e}")

    print("\nlinear profile r = 2 s (below n0): golden-ratio growth")
    for s in (20, 100, 300):
        exact = log2_of_int(eval_exact(2 * s, s))
        approx = approx_linear(2, s).log2
        print(
            f"  s={s:>4}: log2 T / (2s) = {exact / (2 * s):.6f}, "
            f"approx/(2s) = {approx / (2 * s):.6f}, log2(phi) = "
            f"{math.log2((1 + math.sqrt(5)) / 2):.6f}"
        )

    r = s = 10
    if len(solve_critical_points(r, s)) == 2:
        print(
            "\nat r = s the smooth point is absent: smooth critical point absent "
            f"for r={r}, s={s} (needs r > 2s > 0)"
        )


if __name__ == "__main__":
    main()
