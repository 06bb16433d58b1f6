"""Generating-function machinery for the conflict-tree budget recurrence.

The recurrence value T(r, s) is the coefficient of x**r y**s in the rational
series F = G / H with

    G(x, y) = 1 - x + 2xy - x^2 y
    H(x, y) = (1 - x)(1 - y)(1 - x - x^2 y).

This module expands that series exactly, solves the critical-point system

    H = 0,   s x H_x = r y H_y        (x, y > 0)

and evaluates each point's asymptotic contribution: the multiple-point form

    T_i = x^-r y^-s G / sqrt(-x^2 y^2 D),    D = H_xx H_yy - H_xy^2

and the smooth single-point form

    T_3 = G / sqrt(2 pi) * x^-r y^-s * sqrt(-y H_y / (s Q)).

For the linear budget profile r = n * s the single-point contribution grows
like ((n-1)^(n-1) / (n-2)^(n-2))**s and takes over from the golden-ratio
regime at the crossover ratio n0 ~= 3.618; above it the value is dominated by
(e*n)**s / sqrt(s). All x^-r / y^-s powers are carried in log2 space.

The smooth point q3 exists only for r > 2s > 0. Elsewhere
:func:`solve_critical_points` returns q1 and q2 alone, and the caller reads
the absence from the list; nothing here warns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .logspace import Log2Value, check_float_range, log2_add

SQRT5 = math.sqrt(5.0)
GOLDEN_RATIO = (1.0 + SQRT5) / 2.0
LOG2_PHI = math.log2(GOLDEN_RATIO)

# coefficient tables of the numerator and (expanded) denominator
G_COEFFS: dict[tuple[int, int], int] = {(0, 0): 1, (1, 0): -1, (1, 1): 2, (2, 1): -1}
H_COEFFS: dict[tuple[int, int], int] = {
    (0, 0): 1,
    (1, 0): -2,
    (0, 1): -1,
    (2, 0): 1,
    (1, 1): 2,
    (2, 1): -2,
    (3, 1): 1,
    (2, 2): 1,
    (3, 2): -1,
}


def eval_G(x: float, y: float) -> float:
    return 1.0 - x + 2.0 * x * y - x * x * y


def eval_H(x: float, y: float) -> float:
    return (1.0 - x) * (1.0 - y) * (1.0 - x - x * x * y)


class HPartials(NamedTuple):
    h: float
    hx: float
    hy: float
    hxx: float
    hyy: float
    hxy: float


def eval_H_partials(x: float, y: float) -> HPartials:
    """H and its five closed-form partial derivatives."""
    h = eval_H(x, y)
    hx = (1.0 - y) * (3.0 * x * x * y - 2.0 * x * (y - 1.0) - 2.0)
    hy = (1.0 - x) * (x * x * (2.0 * y - 1.0) + x - 1.0)
    hxx = -2.0 * (y - 1.0) * ((3.0 * x - 1.0) * y + 1.0)
    hyy = -2.0 * x * x * (x - 1.0)
    hxy = x * x * (3.0 - 6.0 * y) + 4.0 * x * (y - 1.0) + 2.0
    return HPartials(h, hx, hy, hxx, hyy, hxy)


def hessian_det(x: float, y: float) -> float:
    """det of the Hessian of H: H_xx * H_yy - H_xy**2 (cross term squared)."""
    p = eval_H_partials(x, y)
    return p.hxx * p.hyy - p.hxy * p.hxy


_SERIES_MAX_CELLS = 10**6


def expand_series(r_max: int, s_max: int) -> list[list[int]]:
    """Exact power-series coefficients of G / H up to the caps, indexed
    ``[r][s]``; refuses tables of more than 10**6 cells.

    H has constant term 1, so its formal inverse exists and the coefficients
    follow from the convolution identity H * (G / H) = G.
    """
    if r_max < 0 or s_max < 0:
        raise ValueError("caps must be nonnegative")
    cells = (r_max + 1) * (s_max + 1)
    if cells > _SERIES_MAX_CELLS:
        raise ValueError(
            f"series table of {cells} cells exceeds the {_SERIES_MAX_CELLS}-cell limit"
        )
    h_rest = [(a, b, c) for (a, b), c in H_COEFFS.items() if (a, b) != (0, 0)]
    table: list[list[int]] = [[0] * (s_max + 1) for _ in range(r_max + 1)]
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            acc = G_COEFFS.get((r, s), 0)
            for a, b, c in h_rest:
                if a <= r and b <= s:
                    acc -= c * table[r - a][s - b]
            table[r][s] = acc
    return table


@dataclass(frozen=True)
class CriticalPoint:
    """A positive-quadrant solution of the critical-point system."""

    x: float
    y: float
    kind: str  # "multiple" | "single"
    label: str  # "q1" | "q2" | "q3"


_GRADIENT_TOL = 1e-9


def _classify(x: float, y: float) -> str:
    p = eval_H_partials(x, y)
    return "multiple" if math.hypot(p.hx, p.hy) < _GRADIENT_TOL else "single"


def q1() -> CriticalPoint:
    x = (-1.0 + SQRT5) / 2.0
    return CriticalPoint(x, 1.0, _classify(x, 1.0), "q1")


def q2() -> CriticalPoint:
    return CriticalPoint(1.0, 1.0, _classify(1.0, 1.0), "q2")


def solve_critical_points(r: int, s: int) -> list[CriticalPoint]:
    """All positive-quadrant critical points for budget direction (r, s).

    The two multiple points are direction-independent. The smooth point
    x3 = (r - 2s) / (r - s), y3 = s (r - s) / (r - 2s)^2 lies in the positive
    quadrant only when r > 2s > 0; otherwise the list holds only q1 and q2,
    and callers tell the absence from its length.
    """
    if r < 0 or s < 0:
        raise ValueError("budgets must be nonnegative")
    check_float_range(r=r, s=s)
    points = [q1(), q2()]
    if r > 2 * s > 0:
        x3 = (r - 2 * s) / (r - s)
        y3 = s * (r - s) / (r - 2 * s) ** 2
        p3 = CriticalPoint(x3, y3, _classify(x3, y3), "q3")
        residual = _system_residual(p3, r, s)
        if residual > 1e-9 * max(1.0, float(r)):
            raise ArithmeticError(
                f"q3 fails the critical-point system: residual {residual:g}"
            )
        points.append(p3)
    return points


def _system_residual(point: CriticalPoint, r: int, s: int) -> float:
    p = eval_H_partials(point.x, point.y)
    return max(
        abs(p.h), abs(s * point.x * p.hx - r * point.y * p.hy)
    )


def contribution_multiple(point: CriticalPoint, r: int, s: int) -> Log2Value:
    """x^-r y^-s G / sqrt(-x^2 y^2 D) at a multiple point."""
    if point.kind != "multiple":
        raise ValueError(f"{point.label} is not a multiple point")
    check_float_range(r=r, s=s)
    x, y = point.x, point.y
    arg = -(x * x) * (y * y) * hessian_det(x, y)
    if arg <= 0.0:
        raise ValueError(
            f"{point.label} is not a valid multiple point: -x^2 y^2 D = {arg:g}"
        )
    log2v = (
        -r * math.log2(x)
        - s * math.log2(y)
        + math.log2(eval_G(x, y))
        - 0.5 * math.log2(arg)
    )
    return Log2Value(log2v)


def q_term(x: float, y: float) -> float:
    """The quintic combination of partials entering the smooth-point factor."""
    p = eval_H_partials(x, y)
    xhx = x * p.hx
    yhy = y * p.hy
    return (
        -xhx * yhy * yhy
        - yhy * xhx * xhx
        - yhy * yhy * x * x * p.hxx
        - xhx * xhx * y * y * p.hyy
        + 2.0 * xhx * yhy * x * y * p.hxy
    )


def contribution_single(point: CriticalPoint, r: int, s: int) -> Log2Value:
    """G / sqrt(2 pi) * x^-r y^-s * sqrt(-y H_y / (s Q)) at the smooth point."""
    if point.kind != "single":
        raise ValueError(f"{point.label} is not a single point")
    if s < 1:
        raise ValueError("single-point contribution requires s >= 1")
    check_float_range(r=r, s=s)
    x, y = point.x, point.y
    p = eval_H_partials(x, y)
    q = q_term(x, y)
    inner = -y * p.hy / (s * q)
    if inner <= 0.0:
        raise ValueError(
            "invalid single-point square root: "
            f"H_y = {p.hy:g}, Q = {q:g}, inner = {inner:g}"
        )
    log2v = (
        math.log2(eval_G(x, y))
        - 0.5 * math.log2(2.0 * math.pi)
        - r * math.log2(x)
        - s * math.log2(y)
        + 0.5 * math.log2(inner)
    )
    return Log2Value(log2v)


def crossover_ratio() -> float:
    """The ratio n0 where the single-point growth base equals phi**n.

    The log-difference (n-1) ln(n-1) - (n-2) ln(n-2) - n ln(phi) has slope
    ln((n-1)/(n-2)) - ln(phi), zero at (n-1)/(n-2) = phi, so n0 = phi + 2.
    There n0 - 1 = phi**2 and n0 - 2 = phi, and since phi**2 = phi + 1 the
    log-difference is (2 phi**2 - phi - (phi + 2)) ln(phi) = 0: the two
    growth curves are tangent at n0.
    """
    return 2.0 + GOLDEN_RATIO


def approx_linear(n: int, s: int) -> Log2Value:
    """Asymptotic approximation of T(n*s, s) along the linear budget profile.

    Below the crossover ratio the multiple points dominate and the value is
    1 + const * phi**(n*s); at or above it the smooth-point contribution is
    evaluated exactly at (n*s, s).
    """
    if n < 1 or s < 1:
        raise ValueError("requires n >= 1 and s >= 1")
    check_float_range(n=n, s=s, **{"n * s": n * s})
    if n < crossover_ratio():
        golden = contribution_multiple(q1(), n * s, s)
        return Log2Value(log2_add(0.0, golden.log2))
    r = n * s
    smooth = solve_critical_points(r, s)[-1]
    if smooth.label != "q3":
        raise ArithmeticError(f"smooth point missing at n={n}, s={s}")
    return contribution_single(smooth, r, s)


def single_point_growth_base(n: int) -> float:
    """log2 of the per-unit-s growth base (n-1)^(n-1) / (n-2)^(n-2)."""
    if n < 3:
        raise ValueError("growth base defined for n >= 3")
    return (n - 1) * math.log2(n - 1) - (n - 2) * math.log2(n - 2)


def multiple_point_constant() -> float:
    """The constant multiplying phi**r in the golden-ratio contribution."""
    return 2.0 ** contribution_multiple(q1(), 0, 0).log2
