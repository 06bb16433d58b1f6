"""Per-agent multi-valued decision diagrams and their worst-case size bounds.

An MDD for (start, goal, C) is a layered graph whose layer t holds exactly the
cells reachable from the start within t steps and from the goal within C - t
steps; every start-to-goal path of cost exactly C (waits included) threads
through it. Both endpoints' BFS distance lists give each cell its interval
of layers, and :func:`mdd_counts` sums the exact sizes that feed the
empirical conflict-tree checks from them in one pass over ``GridMap.steps``.
:func:`mdd_widths` counts each layer's nodes from the same lists, and
:func:`build_mdd` fills the layers from them where they are walked, giving
each cell at most three successor tuples. Both refuse an MDD whose nodes
plus layers exceed a fixed limit, which they count first. The closed forms bound the
sizes on open 4-connected grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .model import Cell, GridMap, _bfs

# Most nodes plus five per layer build_mdd and mdd_widths accept. Each layer
# has a frozenset and a dict of its own, about five nodes' worth of memory
# even when it holds one cell. A process that builds an MDD at the limit
# peaks at about 80 MiB RSS both on an open 100 x 100 map (corner to corner
# at C = 246: 490,000 nodes in 247 layers) and on a one-cell map (83,333
# nodes in as many layers).
_MDD_MAX_NODES = 5 * 10**5


@dataclass(frozen=True)
class Mdd:
    """Layered reachability graph for one agent at a fixed cost budget."""

    cost: int
    layers: tuple[frozenset[Cell], ...]
    edges: tuple[dict[Cell, tuple[Cell, ...]], ...]


def _distance_lists(
    grid: GridMap, start: Cell, goal: Cell, cost: int, fields=None
) -> tuple[list[int], list[int]]:
    """The start's and goal's BFS distance lists, indexed by ``GridMap.index``.

    Cell v is in MDD layer t exactly when d_s(v) <= t <= C - d_g(v); start
    and goal share a component, so the cells the start cannot reach, with
    d_s = d_g = -1, are in none. ``fields`` holds the two lists when the
    caller has them. Raises ValueError on a blocked start or goal, an
    unreachable goal, or a cost below the shortest distance.
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
    return d_start, d_goal


def _sized_lists(
    grid: GridMap, start: Cell, goal: Cell, cost: int
) -> tuple[list[int], list[int]]:
    """:func:`_distance_lists`, refused when the MDD's nodes plus five for
    each of its C + 1 layers exceed ``_MDD_MAX_NODES``, so the limit bounds
    memory whatever the map's shape. The count is at least 6(C + 1), and a
    huge cost is refused before anything of its size exists."""
    d_start, d_goal = _distance_lists(grid, start, goal, cost)
    nodes = sum(
        cost + 1 - ds - dg for ds, dg in zip(d_start, d_goal) if 0 <= ds <= cost - dg
    )
    if nodes + 5 * (cost + 1) > _MDD_MAX_NODES:
        raise ValueError(
            f"MDD of {nodes} nodes in {cost + 1} layers exceeds the "
            f"{_MDD_MAX_NODES}-node limit, which counts each layer as five nodes"
        )
    return d_start, d_goal


def build_mdd(grid: GridMap, start: Cell, goal: Cell, cost: int) -> Mdd:
    """Construct the exact MDD; wait moves appear as self-edges.

    u -> v is an edge at layer t exactly when d_g(v) <= C - 1 - t, since
    d_s(v) <= d_s(u) + 1 <= t + 1 always holds, so a cell has at most three
    successor tuples: all its MDD neighbours, those with d_g(v) <= d_g(u)
    (at t = C - 1 - d_g(u)) and those with d_g(v) < d_g(u) (at
    t = C - d_g(u)). The grid is bipartite, so no neighbour shares u's goal
    distance and the third tuple is the second without its leading wait.
    Each layer's dict gets every node's first tuple, then the cells of the
    two goal-distance shells are overwritten in place. Raises ValueError,
    before any layer is allocated, on an MDD whose nodes plus layers exceed
    a fixed limit.
    """
    d_start, d_goal = _sized_lists(grid, start, goal, cost)
    members: list[list[Cell]] = [[] for _ in range(cost + 1)]
    shared: dict[int, Cell] = {}  # layers and edges hold one tuple per cell
    for cell in grid.cells():
        u = grid.index(cell)
        first, last = d_start[u], cost - d_goal[u]
        if 0 <= first <= last:
            shared[u] = cell
            for t in range(first, last + 1):
                members[t].append(cell)
    layers = tuple(frozenset(cells) for cells in members)

    steps = grid.steps
    full: dict[Cell, tuple[Cell, ...]] = {}
    shells: list[list] = [[] for _ in range(cost)]  # (cell, successors) at t
    for u, cell in shared.items():
        near = [v for v in steps[u] if v in shared]
        full[cell] = tuple([shared[v] for v in near])
        dg = d_goal[u]
        closer = tuple([shared[v] for v in near if d_goal[v] <= dg])
        t = cost - 1 - dg
        if t >= d_start[u]:
            shells[t].append((cell, closer))
        if dg > 0:
            shells[t + 1].append((cell, closer[1:]))  # all but the wait
    edges = []
    for here, shell in zip(layers, shells):
        adj = dict(zip(here, map(full.__getitem__, here)))
        adj.update(shell)  # keys already present keep their place
        edges.append(adj)
    return Mdd(cost, layers, tuple(edges))


def mdd_counts(grid: GridMap, start: Cell, goal: Cell, cost: int) -> tuple[int, int]:
    """Exact (node count, edge count) of the MDD, without building it.

    Equal to ``mdd_size(build_mdd(grid, start, goal, cost))`` and raises the
    same errors. A cell u is a node in C + 1 - d_s(u) - d_g(u) layers. A
    step u -> v, v = u for a wait, leaves u at every t in
    [max(d_s(u), d_s(v) - 1), min(C - d_g(u), C - 1 - d_g(v))]; on a grid
    d_s(v) <= d_s(u) + 1 and d_g(v) >= d_g(u) - 1, so that window is
    [d_s(u), C - 1 - d_g(v)], an edge in C - d_s(u) - d_g(v) layers. Each
    count adds only where it is positive.
    """
    return _field_counts(grid, start, goal, cost)


def _field_counts(grid, start, goal, cost, fields=None) -> tuple[int, int]:
    """:func:`mdd_counts`, taking the two BFS distance lists when given."""
    d_start, d_goal = _distance_lists(grid, start, goal, cost, fields)
    nodes = edges = 0
    for ds, dg, near in zip(d_start, d_goal, grid.steps):
        top = cost - ds
        if ds < 0 or top < dg:
            continue
        nodes += top + 1 - dg
        for v in near:
            b = top - d_goal[v]
            if b > 0:
                edges += b
    return nodes, edges


def mdd_widths(grid: GridMap, start: Cell, goal: Cell, cost: int) -> list[int]:
    """Each layer's node count, ``[len(x) for x in build_mdd(...).layers]``,
    without building it: cell u adds one to layers d_s(u) .. C - d_g(u),
    summed as a difference list. Same errors and size limit as
    :func:`build_mdd`."""
    d_start, d_goal = _sized_lists(grid, start, goal, cost)
    diff = [0] * (cost + 2)
    for ds, dg in zip(d_start, d_goal):
        if 0 <= ds <= cost - dg:
            diff[ds] += 1
            diff[cost + 1 - dg] -= 1
    return list(accumulate(diff[:-1]))


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


def analytic_size_bound(cost: int) -> int:
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
        return 1
    if cost % 2 == 0:
        return (cost**3 + 6 * cost**2 + 8 * cost) // 6
    even = cost - 1
    mid = (cost + 1) // 2
    return (even**3 + 6 * even**2 + 8 * even) // 6 + 2 * mid * (mid + 1)


def radius_size_bound(radius: int, delta: int, n: int) -> int:
    """Radius-refined bound delta*n + (4/3) r (r+1) (r+2) for C = 2r + delta.

    Evaluated in exact rationals and rounded up: a bound must never
    under-report. At r = 0 the formula counts delta of the C + 1 = delta + 1
    layers, so the value there is (delta + 1) * n, at most n cells in each
    layer; a map of radius 0 is one cell, and its MDD has C + 1 nodes.
    """
    if radius < 0 or delta < 0 or n < 1:
        raise ValueError("requires radius >= 0, delta >= 0, n >= 1")
    if radius == 0:
        return (delta + 1) * n
    return math.ceil(Fraction(4, 3) * radius * (radius + 1) * (radius + 2) + delta * n)


def with_edges_bound(cost: int) -> int:
    """Vertex-and-edge constraint-space bound: out-degree on a grid is at most
    five (four moves plus wait), so nodes + edges <= 6 * node bound."""
    return 6 * analytic_size_bound(cost)
