"""Worst-case complexity bound calculators for Conflict-Based Search.

The package computes exact per-agent MDD sizes and their closed-form bounds,
evaluates the conflict-tree budget recurrence exactly and in log2 space,
carries out the generating-function asymptotics for the recurrence, compares
all resulting bounds on benchmark rows, and validates them empirically against
a reference CBS solver.
"""

from .bounds import (
    BoundInputs,
    bound_mdd_exponential,
    bound_original,
    bound_rec_genfunc,
    bound_rec_induction,
    compare,
    display_exponent,
)
from .cbs import (
    BoundViolationError,
    Conflict,
    Constraint,
    CtNode,
    SearchLimitError,
    SolveStats,
    UnsolvableError,
    Violation,
    empirical_bound_check,
    find_conflicts,
    low_level_search,
    solve,
    validate,
)
from .genfunc import (
    CriticalPoint,
    approx_linear,
    contribution_multiple,
    contribution_single,
    crossover_ratio,
    eval_G,
    eval_H,
    eval_H_partials,
    expand_series,
    hessian_det,
    multiple_point_constant,
    single_point_growth_base,
    solve_critical_points,
)
from .logspace import LOG2_3, Log2Value, log2_add, log2_of_int
from .mdd import (
    Mdd,
    analytic_size_bound,
    build_mdd,
    layer_bound,
    mdd_counts,
    mdd_size,
    radius_size_bound,
    with_edges_bound,
)
from .model import (
    GridMap,
    Instance,
    ParseError,
    ScenEntry,
    parse_map,
    parse_scen,
    path_cost,
    radius,
    read_scen_entries,
    serialize_map,
)
from .recurrence import (
    eval_exact,
    eval_log,
    induction_bound,
)

__version__ = "0.1.0"
