"""Closed-form conflict-tree bound calculators, all in log2 space.

Four families are covered: the original exhaustive-constraint bound 2**(knC),
the MDD-exponential bound 2**(kM), the recurrence-plus-induction bound
3 * (kM)**(kC), and the recurrence-plus-generating-function bound (e n)**(kC)
with its grid and general edge-constraint variants. A comparison report
recomputes all of them for one (n, k, C) row the way the benchmark table does,
including order-of-magnitude display exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .logspace import Log2Value, check_float_range
from .mdd import analytic_size_bound, radius_size_bound
from .recurrence import induction_bound

EDGE_MODES = ("none", "grid", "general")
OBJECTIVES = ("makespan", "soc")


@dataclass(frozen=True)
class BoundInputs:
    """One benchmark row: vertex count, agents, makespan, optional MDD size.

    M defaults to n*C, the coarse every-cell-every-timestep bound the
    benchmark table uses. Under the sum-of-costs objective the positive budget
    C' = kC replaces kC throughout, which leaves the numbers unchanged.
    """

    n: int
    k: int
    C: int
    M: Optional[int] = None
    edge_mode: str = "none"
    objective: str = "makespan"

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.C < 1:
            raise ValueError("requires n >= 1, k >= 1, C >= 1")
        if self.M is not None and self.M < 1:
            raise ValueError("M must be >= 1 when given")
        if self.edge_mode not in EDGE_MODES:
            raise ValueError(f"edge_mode must be one of {EDGE_MODES}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        check_float_range(n=self.n, k=self.k, C=self.C, M=self.M)

    @property
    def effective_m(self) -> int:
        return self.M if self.M is not None else self.n * self.C

    @property
    def positive_budget(self) -> int:
        # kC for makespan; C' = kC for sum-of-costs: identical by design
        return self.k * self.C


def _vertex_edge_base(inputs: BoundInputs) -> int:
    """Per-(agent, timestep) negative-constraint count for the edge mode."""
    n = inputs.n
    if inputs.edge_mode == "none":
        return n
    if inputs.edge_mode == "grid":
        # each grid cell adds at most 8 directed incident edges
        return 9 * n
    return 2 * n * n + n


def bound_original(inputs: BoundInputs) -> Log2Value:
    """High-level part of the original bound: log2 = (constraint count).

    The low-level single-agent search multiplier is reported separately by
    callers and never folded in.
    """
    return Log2Value(float(_vertex_edge_base(inputs) * inputs.k * inputs.C))


def bound_mdd_exponential(k: int, m: int) -> Log2Value:
    """2**(k M) with any MDD size bound M: log2 = k * M."""
    if k < 1 or m < 1:
        raise ValueError("requires k >= 1 and M >= 1")
    return Log2Value(float(k * m))


def bound_rec_induction(inputs: BoundInputs) -> Log2Value:
    """Recurrence bound closed by induction: 3 * (kM)**(kC)."""
    return induction_bound(inputs.k * inputs.effective_m, inputs.positive_budget)


def bound_rec_genfunc(inputs: BoundInputs, grid_mdd: bool = False) -> Log2Value:
    """Generating-function bound (e * base)**(kC), valid for n >= 4.

    base is n, 9n (grid edge constraints), or 2n^2 + n (general graphs).
    ``grid_mdd`` instead substitutes the quadratic grid relation n -> C^2,
    giving (e C)**(2 kC).
    """
    if inputs.n < 4:
        raise ValueError("outside the n >= 4 validity range")
    s = inputs.positive_budget
    if grid_mdd:
        return Log2Value(2.0 * s * math.log2(math.e * inputs.C))
    return Log2Value(s * math.log2(math.e * _vertex_edge_base(inputs)))


def display_exponent(value: Log2Value) -> int:
    """Order-of-magnitude display: ceiling of log10 of the log2 value."""
    if value.log2 <= 0.0:
        raise ValueError("display exponent needs a bound larger than 2**1")
    return math.ceil(math.log10(value.log2))


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one input row, plus the original/genfunc ratio."""

    inputs: BoundInputs
    org: Log2Value
    rec_ind: Log2Value
    rec_gf: Log2Value
    mdd_cube: Log2Value
    radius_bound: Optional[Log2Value]
    ratio_org_over_gf: Log2Value

    @property
    def org_exp10(self) -> int:
        return display_exponent(self.org)

    @property
    def rec_ind_exp10(self) -> int:
        return display_exponent(self.rec_ind)

    @property
    def rec_gf_exp10(self) -> int:
        return display_exponent(self.rec_gf)

    def as_dict(self) -> dict:
        d = {
            "n": self.inputs.n,
            "k": self.inputs.k,
            "C": self.inputs.C,
            "M": self.inputs.effective_m,
            "edge_mode": self.inputs.edge_mode,
            "objective": self.inputs.objective,
            "org_log2": self.org.log2,
            "rec_ind_log2": self.rec_ind.log2,
            "rec_gf_log2": self.rec_gf.log2,
            "mdd_cube_log2": self.mdd_cube.log2,
            "ratio_log2": self.ratio_org_over_gf.log2,
            "org_exp10": self.org_exp10,
            "rec_ind_exp10": self.rec_ind_exp10,
            "rec_gf_exp10": self.rec_gf_exp10,
        }
        if self.radius_bound is not None:
            d["radius_bound_log2"] = self.radius_bound.log2
        return d


def compare(inputs: BoundInputs, radius: Optional[int] = None) -> BoundReport:
    """Evaluate every bound for one row; the ratio is org - rec_gf in log2.

    The radius-refined bound is included only when the graph radius is given
    and C >= 2 * radius.
    """
    org = bound_original(inputs)
    rec_ind = bound_rec_induction(inputs)
    rec_gf = bound_rec_genfunc(inputs)
    mdd_cube = bound_mdd_exponential(inputs.k, analytic_size_bound(inputs.C))
    rad = None
    if radius is not None and inputs.C >= 2 * radius:
        m = radius_size_bound(radius, inputs.C - 2 * radius, inputs.n)
        rad = bound_mdd_exponential(inputs.k, m)
    ratio = Log2Value(org.log2 - rec_gf.log2)
    return BoundReport(inputs, org, rec_ind, rec_gf, mdd_cube, rad, ratio)
