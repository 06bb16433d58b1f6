"""Per-agent multi-valued decision diagrams and their worst-case size bounds.

An MDD for (start, goal, C) is a layered graph whose layer t holds exactly the
cells reachable from the start within t steps and from the goal within C - t
steps; every start-to-goal path of cost exactly C (waits included) threads
through it. Exact sizes feed the empirical conflict-tree checks; the closed
forms bound them on open 4-connected grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Cell, GridMap, distance_field


@dataclass(frozen=True)
class Mdd:
    """Layered reachability graph for one agent at a fixed cost budget."""

    cost: int
    layers: tuple[frozenset[Cell], ...]
    edges: tuple[dict[Cell, tuple[Cell, ...]], ...]


@dataclass(frozen=True)
class MddSizeBound:
    """A closed-form node-count bound for one cost value."""

    cost: int
    value: int
    variant: str  # "analytic-grid" | "radius-based" | "with-edges"

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bound value must be nonnegative")


def build_mdd(grid: GridMap, start: Cell, goal: Cell, cost: int) -> Mdd:
    """Construct the exact MDD; wait moves appear as self-edges."""
    for which, cell in (("start", start), ("goal", goal)):
        if not grid.is_passable(cell):
            raise ValueError(f"{which} {cell} is blocked or out of bounds")
    d_start = distance_field(grid, start)
    d_goal = distance_field(grid, goal)
    shortest = int(d_start[goal[1], goal[0]])
    if shortest < 0:
        raise ValueError(f"unreachable goal {goal} from {start}")
    if cost < shortest:
        raise ValueError(f"infeasible cost {cost} < shortest distance {shortest}")

    layers = []
    for t in range(cost + 1):
        layer = frozenset(
            (x, y)
            for x, y in grid.cells()
            if 0 <= d_start[y, x] <= t and 0 <= d_goal[y, x] <= cost - t
        )
        layers.append(layer)

    edges = []
    for t in range(cost):
        nxt = layers[t + 1]
        adj: dict[Cell, tuple[Cell, ...]] = {}
        for u in layers[t]:
            succ = tuple(v for v in (u, *grid.neighbors(u)) if v in nxt)
            adj[u] = succ
        edges.append(adj)
    return Mdd(cost, tuple(layers), tuple(edges))


def mdd_size(mdd: Mdd) -> tuple[int, int]:
    """Exact (node count, edge count)."""
    m = sum(len(layer) for layer in mdd.layers)
    e = sum(len(succ) for adj in mdd.edges for succ in adj.values())
    return m, e


def layer_bound(t: int) -> int:
    """Quadratic per-layer bound 2t(t+1): cells within distance t of a grid
    point, the source itself excluded."""
    if t < 0:
        raise ValueError("timestep must be nonnegative")
    return 2 * t * (t + 1)


def analytic_size_bound(cost: int) -> MddSizeBound:
    """Cubic total-size bound on open grids, (C^3 + 6C^2 + 8C) / 6 for even C;
    odd C adds one middle-layer term on top of the even formula at C - 1.

    The per-layer bound excludes the source cell, so at C = 0 the formula is
    0 while the exact MDD is the single start = goal cell. For C >= 1 the
    slack in the middle layers covers the endpoints: no start = goal MDD on a
    41 x 41 open grid exceeds the bound at 1 <= C <= 15.
    """
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    if cost % 2 == 0:
        value = (cost**3 + 6 * cost**2 + 8 * cost) // 6
    else:
        even = cost - 1
        mid = (cost + 1) // 2
        value = (even**3 + 6 * even**2 + 8 * even) // 6 + 2 * mid * (mid + 1)
    return MddSizeBound(cost, value, "analytic-grid")


def radius_size_bound(radius: int, delta: int, n: int) -> MddSizeBound:
    """Radius-refined bound delta*n + (4/3) r (r+1) (r+2) for C = 2r + delta.

    Evaluated in exact rationals and rounded up: a bound must never
    under-report.
    """
    if radius < 0 or delta < 0 or n < 1:
        raise ValueError("requires radius >= 0, delta >= 0, n >= 1")
    value = Fraction(4, 3) * radius * (radius + 1) * (radius + 2) + delta * n
    return MddSizeBound(2 * radius + delta, math.ceil(value), "radius-based")


def with_edges_bound(cost: int) -> MddSizeBound:
    """Vertex-and-edge constraint-space bound: out-degree on a grid is at most
    five (four moves plus wait), so nodes + edges <= 6 * node bound."""
    base = analytic_size_bound(cost)
    return MddSizeBound(cost, 6 * base.value, "with-edges")


def constraint_space_size(mdd: Mdd, include_edges: bool = False) -> int:
    """Number of distinct constraints the MDD admits: its nodes, optionally
    plus its edges."""
    m, e = mdd_size(mdd)
    return m + e if include_edges else m
