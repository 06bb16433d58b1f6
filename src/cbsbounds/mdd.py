"""Per-agent multi-valued decision diagrams and their worst-case size bounds.

An MDD for (start, goal, C) is a layered graph whose layer t holds exactly the
cells reachable from the start within t steps and from the goal within C - t
steps; every start-to-goal path of cost exactly C (waits included) threads
through it. Both endpoints' distance fields give each cell its interval of
layers, from which :func:`mdd_counts` sums the exact sizes that feed the
empirical conflict-tree checks; :func:`build_mdd` materializes the layers
where they are shown. The closed forms bound the sizes on open 4-connected
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Cell, GridMap, _bfs, _field_array


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


def _layer_intervals(
    grid: GridMap, start: Cell, goal: Cell, cost: int, fields=None
) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's MDD layers, as int64 arrays (lo, hi) of shape (h, w).

    Cell v is in layer t exactly when d_s(v) <= t <= C - d_g(v), so
    lo = d_s and hi = C - d_g; cells the start cannot reach get the empty
    interval [C + 1, -1]. ``fields`` holds the start's and goal's BFS
    distance lists when the caller has them. Raises ValueError on a blocked
    start or goal, an unreachable goal, or a cost below the shortest distance.
    """
    for which, cell in (("start", start), ("goal", goal)):
        if not grid.is_passable(cell):
            raise ValueError(f"{which} {cell} is blocked or out of bounds")
    d_start, d_goal = fields or (_bfs(grid, start), _bfs(grid, goal))
    shortest = d_start[grid.index(goal)]
    if shortest < 0:
        raise ValueError(f"unreachable goal {goal} from {start}")
    if cost < shortest:
        raise ValueError(f"infeasible cost {cost} < shortest distance {shortest}")
    d_start, d_goal = _field_array(grid, d_start), _field_array(grid, d_goal)
    # start and goal share a component, so d_start and d_goal are -1 together
    reach = d_start >= 0
    lo = np.where(reach, d_start, cost + 1).astype(np.int64)
    hi = np.where(reach, cost - d_goal.astype(np.int64), -1)
    return lo, hi


def build_mdd(grid: GridMap, start: Cell, goal: Cell, cost: int) -> Mdd:
    """Construct the exact MDD; wait moves appear as self-edges."""
    lo, hi = _layer_intervals(grid, start, goal, cost)
    ys, xs = np.nonzero(lo <= hi)
    members: list[list[Cell]] = [[] for _ in range(cost + 1)]
    shared: dict[int, Cell] = {}  # layers and edges hold one tuple per cell
    for x, y, a, b in zip(
        xs.tolist(), ys.tolist(), lo[ys, xs].tolist(), hi[ys, xs].tolist()
    ):
        cell = shared[grid.index((x, y))] = (x, y)
        for t in range(a, b + 1):
            members[t].append(cell)
    layers = tuple(frozenset(cells) for cells in members)

    steps = grid.steps
    around = {
        cell: tuple(shared[v] for v in steps[u] if v in shared)
        for u, cell in shared.items()
    }
    edges = tuple(
        {u: tuple(v for v in around[u] if v in nxt) for u in here}
        for here, nxt in zip(layers, layers[1:])
    )
    return Mdd(cost, layers, edges)


def mdd_counts(grid: GridMap, start: Cell, goal: Cell, cost: int) -> tuple[int, int]:
    """Exact (node count, edge count) of the MDD, without building it.

    Equal to ``mdd_size(build_mdd(grid, start, goal, cost))`` and raises the
    same errors. With each cell's layer interval [lo, hi]: a cell is a node
    in hi - lo + 1 layers and waits in hi - lo of them; a move u -> v leaves
    u at every t in [max(lo_u, lo_v - 1), min(hi_u, hi_v - 1)].
    """
    return _field_counts(grid, start, goal, cost)


def _field_counts(grid, start, goal, cost, fields=None) -> tuple[int, int]:
    """:func:`mdd_counts`, taking the two BFS distance lists when given."""
    lo, hi = _layer_intervals(grid, start, goal, cost, fields)
    nodes = int(np.maximum(hi - lo + 1, 0).sum())
    edges = int(np.maximum(hi - lo, 0).sum())
    # each adjacent pair, left-right then up-down, in both directions
    for a, b in (
        (np.s_[:, :-1], np.s_[:, 1:]),
        (np.s_[:, 1:], np.s_[:, :-1]),
        (np.s_[:-1, :], np.s_[1:, :]),
        (np.s_[1:, :], np.s_[:-1, :]),
    ):
        first = np.maximum(lo[a], lo[b] - 1)
        last = np.minimum(hi[a], hi[b] - 1)
        edges += int(np.maximum(last - first + 1, 0).sum())
    return nodes, edges


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

    The per-layer bound excludes the source cell, so at C = 0 the formula
    gives 0; the value there is 1, since an MDD of cost 0 has start = goal
    and its one layer holds that cell. For C >= 1 the slack in the middle
    layers covers the endpoints: no start = goal MDD on a 41 x 41 open grid
    exceeds the bound at 1 <= C <= 15.
    """
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    if cost == 0:
        value = 1
    elif cost % 2 == 0:
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
