"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written against the public data model only,
with different algorithms than the package (Dijkstra instead of plain BFS,
memoized recursion and the recurrence's own table instead of its closed form,
product-space search instead of CBS), so oracle and implementation can only
agree by being right.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from functools import lru_cache

MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def dijkstra_distance(grid, source, target):
    """Unit-weight Dijkstra; None when the target is unreachable."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == target:
            return d
        if d > dist.get(cell, None if cell not in dist else dist[cell]):
            continue
        x, y = cell
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if grid.is_passable(nxt) and d + 1 < dist.get(nxt, 1 << 60):
                dist[nxt] = d + 1
                heapq.heappush(heap, (d + 1, nxt))
    return None


def dijkstra_field(grid, source):
    """All-cells distance dict from one source."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        x, y = cell
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if grid.is_passable(nxt) and d + 1 < dist.get(nxt, 1 << 60):
                dist[nxt] = d + 1
                heapq.heappush(heap, (d + 1, nxt))
    return dist


def brute_force_radius(grid):
    """``(radius, center)`` by per-cell Dijkstra, the center being the first
    cell in row-major order (by row, then column) with minimum
    eccentricity; None if the map is disconnected."""
    cells = [
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.is_passable((x, y))
    ]
    best = None
    for cell in cells:
        field = dijkstra_field(grid, cell)
        if len(field) != len(cells):
            return None
        ecc = max(field.values())
        if best is None or ecc < best[0]:
            best = (ecc, cell)
    return best


def mdd_layer_oracle(grid, start, goal, cost):
    """Layer sets from two independent distance sweeps."""
    from_start = dijkstra_field(grid, start)
    from_goal = dijkstra_field(grid, goal)
    layers = []
    for t in range(cost + 1):
        layers.append(
            {
                cell
                for cell in grid.cells()
                if from_start.get(cell, 1 << 60) <= t
                and from_goal.get(cell, 1 << 60) <= cost - t
            }
        )
    return layers


def mdd_edge_oracle(grid, start, goal, cost):
    """Per-layer successor dicts: (u, t) -> (v, t + 1) for every v in layer
    t + 1 among u itself (the wait, first) and u's four neighbours in MOVES
    order, tested cell by cell against the two Dijkstra fields."""
    from_start = dijkstra_field(grid, start)
    from_goal = dijkstra_field(grid, goal)

    def in_layer(cell, t):
        return from_start.get(cell, 1 << 60) <= t <= cost - from_goal.get(cell, 1 << 60)

    edges = []
    for t in range(cost):
        adj = {}
        for cell in from_start:
            if in_layer(cell, t):
                x, y = cell
                steps = [cell] + [(x + dx, y + dy) for dx, dy in MOVES]
                adj[cell] = tuple(v for v in steps if in_layer(v, t + 1))
        edges.append(adj)
    return edges


def mdd_size_oracle(grid, start, goal, cost):
    """(nodes, edges) of the MDD, counted pair by pair on the oracle's
    layers: an edge is (u, t) -> (v, t + 1) with v = u or a 4-neighbour."""
    layers = mdd_layer_oracle(grid, start, goal, cost)
    edges = 0
    for here, nxt in zip(layers, layers[1:]):
        for x, y in here:
            for dx, dy in ((0, 0),) + MOVES:
                edges += (x + dx, y + dy) in nxt
    return sum(len(layer) for layer in layers), edges


def naive_recurrence(r, s):
    """Direct memoized recursion on the tight budget recurrence."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10 * (r + s) + 1000))

    @lru_cache(maxsize=None)
    def f(ri, si):
        if ri == 0 or si == 0:
            return 1
        if ri == 1:
            return 3
        return f(ri - 1, si) + f(ri - 2, si - 1) + 1

    return f(r, s)


def recurrence_table(r_max, s_max):
    """The table T[0..r_max][0..s_max] of the tight budget recurrence, filled
    row by row in increasing r from the two rows before it."""
    table = [[1] * (s_max + 1) for _ in range(r_max + 1)]
    if r_max:
        table[1][1:] = [3] * s_max
    for i in range(2, r_max + 1):
        cur, prev1, prev2 = table[i], table[i - 1], table[i - 2]
        for j in range(1, s_max + 1):
            cur[j] = prev1[j] + prev2[j - 1] + 1
    return table


def recurrence_log2_floor(r, s):
    """log2 C(r-s, s): a lower bound on the budget recurrence T(r, s).

    Proof. Take C(m, j) = 0 unless 0 <= j <= m and let g(r, s) = C(r-s, s).
    Pascal's rule C(m, j) = C(m-1, j) + C(m-1, j-1), which holds for every m
    and j >= 1 under that convention, gives for r >= 2, s >= 1

        g(r, s) = C(r-1-s, s) + C(r-s-1, s-1) = g(r-1, s) + g(r-2, s-1),

    the step of T(r, s) = T(r-1, s) + T(r-2, s-1) + 1 without the + 1.
    On the bases g is no larger than T: g(r, 0) = 1 = T(r, 0), and for
    s >= 1, g(0, s) = g(1, s) = 0 while T(0, s) = 1 and T(1, s) = 3.
    Induction on r then gives T(r, s) >= g(r, s) everywhere, so no correct
    upper bound on T(r, s) can lie below 2**recurrence_log2_floor(r, s).

    Evaluated with lgamma, so it costs O(1) at any size; -inf when
    C(r-s, s) = 0.
    """
    m = r - s
    if s < 0 or m < s:
        return -math.inf
    nats = math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)
    return nats / math.log(2)


def finite_difference_partials(x, y, h=0.25):
    """Central-difference partials of the product-form series denominator.

    The denominator is cubic in x and quadratic in y, so five-point stencils
    (and nesting for the mixed term) are exact up to roundoff for any h.
    """

    def H(px, py):
        return (1.0 - px) * (1.0 - py) * (1.0 - px - px * px * py)

    def d5(f, t):
        return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)

    def d5_second(f, t):
        return (
            -f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)
        ) / (12 * h * h)

    hx = d5(lambda u: H(u, y), x)
    hy = d5(lambda v: H(x, v), y)
    hxx = d5_second(lambda u: H(u, y), x)
    hyy = d5_second(lambda v: H(x, v), y)
    hxy = d5(lambda v: d5(lambda u: H(u, v), x), y)
    return hx, hy, hxx, hyy, hxy


def joint_bfs_makespan(grid, starts, goals):
    """Optimal makespan by BFS over the joint configuration space.

    Vertex collisions and swaps are forbidden at every step; the target is
    every agent at its own goal simultaneously. None when unreachable.
    """
    k = len(starts)
    start_state = tuple(starts)
    goal_state = tuple(goals)
    if len(set(start_state)) != k or len(set(goal_state)) != k:
        raise ValueError("starts and goals must be distinct")
    if start_state == goal_state:
        return 0
    seen = {start_state}
    frontier = deque([start_state])
    steps = 0
    while frontier:
        steps += 1
        for _ in range(len(frontier)):
            state = frontier.popleft()
            for nxt in _joint_moves(grid, state):
                if nxt in seen:
                    continue
                if nxt == goal_state:
                    return steps
                seen.add(nxt)
                frontier.append(nxt)
    return None


def _joint_moves(grid, state):
    options = []
    for cell in state:
        x, y = cell
        opts = [cell]
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if grid.is_passable(nxt):
                opts.append(nxt)
        options.append(opts)

    def rec(idx, chosen):
        if idx == len(state):
            yield tuple(chosen)
            return
        for cell in options[idx]:
            if cell in chosen:
                continue  # vertex collision
            swap = False
            for j, prev in enumerate(chosen):
                if prev == state[idx] and cell == state[j]:
                    swap = True
                    break
            if swap:
                continue
            chosen.append(cell)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def space_time_bfs_cost(grid, start, goal, neg_vertex, neg_edge, horizon):
    """Minimum termination time under negative constraints, by plain BFS.

    neg_vertex: set of (cell, t); neg_edge: set of (u, v, t) with arrival t.
    Termination requires that no later vertex constraint pins the goal.
    """
    floor = 0
    for cell, t in neg_vertex:
        if cell == goal:
            floor = max(floor, t + 1)
    if (start, 0) in neg_vertex:
        return None
    frontier = {start}
    t = 0
    while t <= horizon:
        if goal in frontier and t >= floor:
            return t
        nxt_frontier = set()
        for cell in frontier:
            x, y = cell
            for dx, dy in ((0, 0),) + MOVES:
                nxt = (x + dx, y + dy)
                if not grid.is_passable(nxt):
                    continue
                if (nxt, t + 1) in neg_vertex:
                    continue
                if nxt != cell and (cell, nxt, t + 1) in neg_edge:
                    continue
                nxt_frontier.add(nxt)
        frontier = nxt_frontier
        t += 1
    return None


def smallest_cell_descent(grid, start, goal):
    """The path that steps from start to goal, at each step to the smallest
    neighbouring cell one closer to the goal, by a breadth-first search of
    its own from the goal; None when the goal is unreachable."""
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        x, y = queue.popleft()
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if nxt not in dist and grid.is_passable(nxt):
                dist[nxt] = dist[(x, y)] + 1
                queue.append(nxt)
    if start not in dist:
        return None
    path = [start]
    while path[-1] != goal:
        x, y = path[-1]
        path.append(
            min(
                (x + dx, y + dy)
                for dx, dy in MOVES
                if dist.get((x + dx, y + dy)) == dist[(x, y)] - 1
            )
        )
    return tuple(path)


def brute_force_conflicts(paths):
    """Every conflict as (agents, kind, loc, t), by scanning every timestep
    and every pair of agents; an agent rests at its last cell.

    Per step, vertex conflicts come first: each agent b that shares a cell
    with a lower-numbered agent is paired with the lowest such agent a, in
    order of b. Swaps follow for every pair a < b in order, located at a's
    move.
    """

    def at(path, t):
        return path[min(t, len(path) - 1)]

    k = len(paths)
    out = []
    for t in range(max(len(p) for p in paths)):
        for b in range(k):
            for a in range(b):
                if at(paths[a], t) == at(paths[b], t):
                    out.append(((a, b), "vertex", at(paths[b], t), t))
                    break
        if t == 0:
            continue
        for a in range(k):
            for b in range(a + 1, k):
                ua, va = at(paths[a], t - 1), at(paths[a], t)
                ub, vb = at(paths[b], t - 1), at(paths[b], t)
                if ua != va and ua == vb and va == ub:
                    out.append(((a, b), "edge", (ua, va), t))
    return out
