"""Per-agent multi-valued decision diagrams and their worst-case size bounds.

An MDD for (start, goal, C) is a layered graph whose layer t holds exactly the
cells reachable from the start within t steps and from the goal within C - t
steps; every start-to-goal path of cost exactly C (waits included) threads
through it. One sweep out of the start, pruned by the goal's BFS distance
list, visits only the MDD's cells, each at its start distance, and counts
the exact sizes that :func:`mdd_counts` returns and the empirical
conflict-tree checks use. :func:`mdd_widths` counts each layer's nodes from
its rings, and :func:`build_mdd` builds the layers from them where they are
walked, by one sweep over the layers that sets each cell's at most three
successor tuples where they take over. Both refuse an MDD whose nodes plus
layers exceed a fixed limit, which the sweep counts first. The closed forms
bound the sizes on open 4-connected grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .model import Cell, GridMap, _bfs

# Most nodes plus five per layer build_mdd and mdd_widths accept. Each layer
# has a frozenset and a dict of its own, about five nodes' worth of memory
# even when it holds one cell. A process that builds an MDD at the limit
# peaks at 64 MiB RSS on an open 100 x 100 map (corner to corner at C = 246:
# 490,000 nodes in 247 layers) and at 55 MiB on a one-cell map (83,333 nodes
# in as many layers), against 17 MiB for one that builds nothing.
_MDD_MAX_NODES = 5 * 10**5


@dataclass(frozen=True)
class Mdd:
    """Layered reachability graph for one agent at a fixed cost budget."""

    cost: int
    layers: tuple[frozenset[Cell], ...]
    edges: tuple[dict[Cell, tuple[Cell, ...]], ...]


def _sweep(grid: GridMap, start: Cell, goal: Cell, cost: int, d_goal=None):
    """``(d_goal, rings, nodes, edges)``: the goal's BFS distance list (the
    caller's ``d_goal`` when given), the MDD's ids by start distance
    (``rings[d]``), and the counts of :func:`mdd_counts`.

    A BFS out of the start that enters a neighbour v of u only when
    b = C - d_s(u) - d_g(v) > 0, which is what the edge u -> v adds. Every
    shortest path from the start to an MDD cell stays inside the MDD, so it
    meets each MDD cell at its start distance and no other cell (proof in
    README); d_s(goal) = d_g(start), so the checks need no start field.
    Raises ValueError on a blocked start or goal, an unreachable goal, or a
    cost below the shortest distance.
    """
    for which, cell in (("start", start), ("goal", goal)):
        if not grid.is_passable(cell):
            raise ValueError(f"{which} {cell} is blocked or out of bounds")
    if d_goal is None:
        d_goal = _bfs(grid, goal)
    src = grid.index(start)
    shortest = d_goal[src]
    if shortest < 0:
        raise ValueError(f"unreachable goal {goal} from {start}")
    if cost < shortest:
        raise ValueError(f"infeasible cost {cost} < shortest distance {shortest}")
    steps = grid.steps
    seen, ring, rings = {src}, [src], []
    nodes = edges = 0
    top = cost  # C - d_s(u) for u in ring
    while ring:
        rings.append(ring)
        nxt = []
        for u in ring:
            nodes += top + 1 - d_goal[u]
            for v in steps[u]:
                b = top - d_goal[v]
                if b > 0:
                    edges += b
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        ring = nxt
        top -= 1
    return d_goal, rings, nodes, edges


def _sized_sweep(grid: GridMap, start: Cell, goal: Cell, cost: int):
    """:func:`_sweep`'s goal field and rings, refused when the MDD's nodes
    plus five for each of its C + 1 layers exceed ``_MDD_MAX_NODES``, so the
    limit bounds memory whatever the map's shape. The count is at least
    6(C + 1), and a huge cost is refused before anything of its size exists."""
    d_goal, rings, nodes, _ = _sweep(grid, start, goal, cost)
    if nodes + 5 * (cost + 1) > _MDD_MAX_NODES:
        raise ValueError(
            f"MDD of {nodes} nodes in {cost + 1} layers exceeds the "
            f"{_MDD_MAX_NODES}-node limit, which counts each layer as five nodes"
        )
    return d_goal, rings


def build_mdd(grid: GridMap, start: Cell, goal: Cell, cost: int) -> Mdd:
    """Construct the exact MDD; wait moves appear as self-edges.

    u -> v is an edge at layer t exactly when d_g(v) <= C - 1 - t, since
    d_s(v) <= d_s(u) + 1 <= t + 1 always holds, so a cell has at most three
    successor tuples: all its MDD neighbours (up to t = C - 2 - d_g(u)),
    those with d_g(v) <= d_g(u) (at t = C - 1 - d_g(u)) and those with
    d_g(v) < d_g(u) (at t = C - d_g(u)). The grid is bipartite, so no
    neighbour shares u's goal distance and the third tuple is the second
    without its leading wait. Each tuple is bucketed at the layer where it
    takes over, and each cell at the layer after its last; one sweep over
    the layers applies them to a single cell-to-successors dict and copies
    it once per layer. Raises ValueError, before any layer is allocated, on
    an MDD whose nodes plus layers exceed a fixed limit.
    """
    d_goal, rings = _sized_sweep(grid, start, goal, cost)
    # layers and edges hold one tuple per cell
    shared = {u: grid.cell(u) for ring in rings for u in ring}
    steps = grid.steps
    sets: dict[int, list] = {}  # t -> (cell, successors from t on)
    drops: dict[int, list[Cell]] = {}  # t -> cells in no layer from t on
    for first, ring in enumerate(rings):
        for u in ring:
            cell, dg = shared[u], d_goal[u]
            last = cost - dg
            # every neighbour of a cell in three or more layers is a node, and
            # so is every neighbour closer to the goal (proof in README)
            closer = tuple([shared[v] for v in steps[u] if d_goal[v] <= dg])
            if first < last - 1:
                full = tuple(map(shared.__getitem__, steps[u]))
                sets.setdefault(first, []).append((cell, full))
            if first <= last - 1:
                sets.setdefault(last - 1, []).append((cell, closer))
            sets.setdefault(last, []).append((cell, closer[1:]))  # all but the wait
            drops.setdefault(last + 1, []).append(cell)
    adj: dict[Cell, tuple[Cell, ...]] = {}
    layers, edges = [], []
    for t in range(cost + 1):
        for cell in drops.get(t, ()):
            del adj[cell]
        adj.update(sets.get(t, ()))
        layers.append(frozenset(adj))
        if t < cost:
            edges.append(dict(adj))
    return Mdd(cost, tuple(layers), tuple(edges))


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
    return _sweep(grid, start, goal, cost)[2:]


def mdd_widths(grid: GridMap, start: Cell, goal: Cell, cost: int) -> list[int]:
    """Each layer's node count, ``[len(x) for x in build_mdd(...).layers]``,
    without building it: cell u adds one to layers d_s(u) .. C - d_g(u),
    summed as a difference list. Same errors and size limit as
    :func:`build_mdd`."""
    d_goal, rings = _sized_sweep(grid, start, goal, cost)
    diff = [0] * (cost + 2)
    for ds, ring in enumerate(rings):
        diff[ds] += len(ring)
        for u in ring:
            diff[cost + 1 - d_goal[u]] -= 1
    return list(accumulate(diff[:-1]))


def mdd_size(mdd: Mdd) -> tuple[int, int]:
    """Exact (node count, edge count)."""
    m = sum(map(len, mdd.layers))
    e = sum(sum(map(len, adj.values())) for adj in mdd.edges)
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

    Exact in integers, since 3 divides r (r+1) (r+2). At r = 0 the formula
    counts delta of the C + 1 = delta + 1 layers, so the value there is
    (delta + 1) * n, at most n cells in each layer; a map of radius 0 is one
    cell, and its MDD has C + 1 nodes.
    """
    if radius < 0 or delta < 0 or n < 1:
        raise ValueError("requires radius >= 0, delta >= 0, n >= 1")
    if radius == 0:
        return (delta + 1) * n
    return 4 * radius * (radius + 1) * (radius + 2) // 3 + delta * n


def with_edges_bound(cost: int) -> int:
    """Vertex-and-edge constraint-space bound: out-degree on a grid is at most
    five (four moves plus wait), so nodes + edges <= 6 * node bound."""
    return 6 * analytic_size_bound(cost)
