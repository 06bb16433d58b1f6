"""Closed-form conflict-tree bound calculators, all in log2 space.

Four families are covered: the original exhaustive-constraint bound 2**(knC),
the MDD-exponential bound 2**(kM), the recurrence-plus-induction bound
3 * (kM)**(kC), and the recurrence-plus-generating-function bound (e n)**(kC)
with its grid and general edge-constraint variants. A comparison report
recomputes all of them for one (n, k, C) row the way the benchmark table does,
including order-of-magnitude display exponents, and returns them as the dict
the CLI prints.
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
        # the products the bounds turn into floats; the first names the edge
        # mode's constraint base
        base = {"none": "n", "grid": "9n", "general": "(2n^2 + n)"}[self.edge_mode]
        check_float_range(
            **{
                f"{base} * k * C": _vertex_edge_base(self) * self.k * self.C,
                "k * M": self.k * self.effective_m,
                "k * analytic_size_bound(C)": self.k * analytic_size_bound(self.C),
            }
        )

    @property
    def effective_m(self) -> int:
        return self.M if self.M is not None else self.n * self.C


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
    return induction_bound(inputs.k * inputs.effective_m, inputs.k * inputs.C)


def bound_rec_genfunc(inputs: BoundInputs, grid_mdd: bool = False) -> Log2Value:
    """Generating-function bound (e * base)**(kC), valid for n >= 4.

    base is n, 9n (grid edge constraints), or 2n^2 + n (general graphs).
    ``grid_mdd`` instead substitutes the quadratic grid relation n -> C^2,
    giving (e C)**(2 kC).
    """
    if inputs.n < 4:
        raise ValueError("outside the n >= 4 validity range")
    s = inputs.k * inputs.C
    if grid_mdd:
        return Log2Value(2.0 * s * math.log2(math.e * inputs.C))
    return Log2Value(s * math.log2(math.e * _vertex_edge_base(inputs)))


def display_exponent(value: Log2Value) -> int:
    """Order-of-magnitude display: ceiling of log10 of the log2 value."""
    if value.log2 <= 0.0:
        raise ValueError("display exponent needs a bound larger than 2**1")
    return math.ceil(math.log10(value.log2))


def compare(inputs: BoundInputs, radius: Optional[int] = None) -> dict:
    """Every bound for one row, as the dict the CLI prints: the inputs with
    M resolved, each bound's log2, the ratio org - rec_gf in log2, and the
    display exponents of org, rec_ind and rec_gf.

    ``radius_bound_log2`` is added only when the graph radius is given and
    C >= 2 * radius. Needs n >= 4, as the generating-function bound does.
    """
    d = {
        "n": inputs.n,
        "k": inputs.k,
        "C": inputs.C,
        "M": inputs.effective_m,
        "edge_mode": inputs.edge_mode,
        "objective": inputs.objective,
        "org_log2": bound_original(inputs).log2,
        "rec_ind_log2": bound_rec_induction(inputs).log2,
        "rec_gf_log2": bound_rec_genfunc(inputs).log2,
        "mdd_cube_log2": bound_mdd_exponential(
            inputs.k, analytic_size_bound(inputs.C)
        ).log2,
    }
    d["ratio_log2"] = d["org_log2"] - d["rec_gf_log2"]
    for name in ("org", "rec_ind", "rec_gf"):
        d[f"{name}_exp10"] = display_exponent(Log2Value(d[f"{name}_log2"]))
    if radius is not None and inputs.C >= 2 * radius:
        m = radius_size_bound(radius, inputs.C - 2 * radius, inputs.n)
        d["radius_bound_log2"] = bound_mdd_exponential(inputs.k, m).log2
    return d
