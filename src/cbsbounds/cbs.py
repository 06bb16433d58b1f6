"""Reference Conflict-Based Search solver, instrumented for bound checks.

Two-level optimal MAPF search under the makespan objective. The high level
runs best-first over a constraint tree; the low level is space-time A* with
negative and positive vertex/edge constraints. Splitting is either classic
(negative constraint on each conflicting agent) or disjoint (positive plus
negative constraint on one agent). Solve statistics are compared against the
worst-case calculators by :func:`empirical_bound_check`.

Edge-constraint time convention: an edge constraint (u, v, t) refers to the
move that leaves u at t-1 and arrives at v at t, so t >= 1 always.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress
from operator import eq, ne
from typing import Optional

from .bounds import BoundInputs, bound_rec_genfunc
from .logspace import log2_of_int
from .mdd import _sweep
from .model import Cell, Instance, Path
from .recurrence import eval_log


# Most conflict-tree nodes solve generates. Classic splitting on README's
# 8-cell corridor with a bay reaches the limit in 3.0-3.1 s on a shared
# 2-core Xeon host, at 64 MiB peak RSS: about 1 KiB per node over the 16 MiB
# of a process that has imported the package, which does not import numpy.
_CT_MAX_NODES = 5 * 10**4


class UnsolvableError(RuntimeError):
    """No conflict-free solution exists within the search horizon."""


class BoundViolationError(RuntimeError):
    """Measured conflict-tree size exceeded a worst-case bound."""


def _adjacent(a: Cell, b: Cell) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


@dataclass(frozen=True)
class Constraint:
    """A (possibly positive) vertex or edge constraint on one agent."""

    agent: int
    kind: str  # "vertex" | "edge"
    sign: str  # "negative" | "positive"
    loc: tuple  # Cell for vertex; ordered (u, v) Cell pair for edge
    t: int

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.sign not in ("negative", "positive"):
            raise ValueError(f"unknown constraint sign {self.sign!r}")
        if self.kind == "vertex":
            if self.t < 0:
                raise ValueError("vertex constraints need t >= 0")
        else:
            if self.t < 1:
                raise ValueError("edge constraints need t >= 1")
            u, v = self.loc
            if not _adjacent(u, v):
                raise ValueError(f"edge constraint cells {u}, {v} not 4-adjacent")


@dataclass(frozen=True)
class Conflict:
    """First disagreement between two paths: same cell, or a swap."""

    agents: tuple[int, int]
    kind: str  # "vertex" | "edge"
    loc: tuple  # Cell, or (u, v) as the move of the first agent
    t: int


@dataclass
class CtNode:
    """One constraint-tree node of :func:`solve`, on cell ids: constraints,
    paths, cost, pending conflict.

    A constraint is ``(agent, positive, u, v, t)``: ids with u == v for a
    vertex constraint, or the move u -> v arriving at t for an edge one;
    ``constraints`` holds one per branch on the way from the root. A
    conflict is ``(i, j, u, v, t)``: u == v the cell agents i and j share,
    or the move u -> v of agent i that agent j makes the other way. Paths
    are tuples of ids. ``columns[t]`` holds every agent's id at step t, each
    path padded with its final id, and ``by_step`` maps each step that has
    conflicts to them, as :func:`_scan` finds them, so that a child rebuilds
    and rescans only the steps its replans changed. Cells appear only at
    the public edge: :func:`low_level_search`, :func:`find_conflicts` and
    the paths :func:`solve` returns.
    """

    constraints: tuple[tuple, ...]
    paths: tuple[tuple[int, ...], ...]
    cost: int
    conflict: Optional[tuple]
    n_conflicts: int
    depth: int
    by_step: dict[int, list[tuple]]
    columns: list[tuple[int, ...]]


@dataclass(frozen=True)
class SolveStats:
    """Conflict-tree statistics of one solve run."""

    generated: int
    expanded: int
    max_depth: int
    negative_applied: int
    positive_applied: int
    optimal_cost: int
    low_level_calls: int
    conflict_steps_scanned: int


class SearchLimitError(RuntimeError):
    """The conflict tree would pass ``_CT_MAX_NODES`` generated nodes.

    ``stats`` holds the counters at that point; its ``optimal_cost`` is the
    cost of the node being expanded, a lower bound on the optimum.
    """

    def __init__(self, message: str, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class Violation:
    """Earliest rule violation found in a solution."""

    kind: str
    agents: tuple[int, ...]
    loc: tuple
    t: int


def find_conflicts(paths: tuple[Path, ...]) -> list[Conflict]:
    """All vertex and swap conflicts, in time order (vertex first per step).

    Agents rest at their terminal cells. An agent in an occupied cell
    conflicts with the lowest-numbered agent there; swaps follow by pair.
    This is :func:`_scan` over every step up to the last path's end, the
    scan :func:`solve` runs on the id columns of its nodes, with each
    conflict turned into a :class:`Conflict` of cells."""
    if not all(paths):
        raise ValueError("every path needs at least one cell")
    columns = _columns(paths)
    return [
        Conflict((i, j), "vertex", u, t)
        if u == v
        else Conflict((i, j), "edge", (u, v), t)
        for step in _scan(columns, range(len(columns))).values()
        for i, j, u, v, t in step
    ]


def _columns(paths, start: int = 0) -> list[tuple]:
    """Each step's cells, one per agent, from step ``start`` up to the last
    path's end; a path that ends earlier rests at its final cell."""
    end = max(map(len, paths))
    return list(zip(*[p[start:] + p[-1:] * (end - max(len(p), start)) for p in paths]))


def _scan(columns: list[tuple], steps) -> dict[int, list[tuple]]:
    """The conflicts ``(i, j, u, v, t)`` at each step of ``steps``
    (ascending, each below ``len(columns)``) that has any, where
    ``columns[t]`` holds every agent's cell (or id) at step t.

    A step's conflicts depend only on the agents' cells at that step and
    the one before. Each step is screened on its set of cells: the vertex
    scan runs only where two agents share a cell, and the swap scan only
    there or where more cells stay occupied from the step before than one
    plus the number of waiting agents (a swap keeps both its cells
    occupied; see README)."""
    k = len(columns[0])
    found: dict[int, list[tuple]] = {}
    held = -2  # the step whose cells `last` holds
    last: set = set()
    for t in steps:
        before = columns[t - 1] if t else ()
        if t != held + 1:
            last = set(before)
        here = columns[t]
        cells = set(here)
        crowded = len(cells) < k
        out = []
        if crowded:
            occupied: dict = {}
            for i, cell in enumerate(here):
                first = occupied.setdefault(cell, i)
                if first != i:
                    out.append((first, i, cell, cell, t))
        if crowded or len(cells & last) > sum(map(eq, before, here)) + 1:
            moves: dict[tuple, list[int]] = {}
            for j, move in enumerate(zip(before, here)):
                if move[0] != move[1]:
                    moves.setdefault(move, []).append(j)
            for i, (u, v) in enumerate(zip(before, here)):
                for j in moves.get((v, u), ()):
                    if j > i:
                        out.append((i, j, u, v, t))
        if out:
            found[t] = out
        last, held = cells, t
    return found


def _constraint_tables(constraints, agent: int, size: int):
    """Split a set of ``(agent, positive, u, v, t)`` constraints into the
    tables the low level consults.

    With S = ``size`` = ``len(grid.steps)``, a state (cell id u, time t) is
    the int ``t * S + u``. Returns (neg_vertex, neg_edge, required): the
    forbidden states, the forbidden moves u -> v arriving at t as
    ``(t * S + v) * S + u``, and required mapping t -> the id the agent must
    occupy. Positive constraints of other agents turn into negative
    constraints here. Returns None when the positives are contradictory.
    """
    neg_v: set[int] = set()
    neg_e: set[int] = set()
    required: dict[int, int] = {}

    def require(t: int, u: int) -> bool:
        return required.setdefault(t, u) == u

    for a, positive, u, v, t in constraints:
        if a == agent:
            if not positive:
                if u == v:
                    neg_v.add(t * size + u)
                else:
                    neg_e.add((t * size + v) * size + u)
            elif u == v:
                if not require(t, u):
                    return None
            elif not (require(t - 1, u) and require(t, v)):
                return None
        elif positive:
            # someone else is pinned there; this agent must keep clear
            if u == v:
                neg_v.add(t * size + u)
            else:
                neg_v.add((t - 1) * size + u)
                neg_v.add(t * size + v)
                neg_e.add((t * size + u) * size + v)
    return neg_v, neg_e, required


def _descent(steps, dist: list[int], hops: list[int], u: int) -> list[int]:
    """The ids from u to the goal of ``dist``, stepping from each id to its
    lowest-id neighbour one closer to the goal. ``hops[u]`` caches that
    neighbour, filled on u's first visit (-1 before), so repeated descents
    toward one goal are lookups."""
    ids = [u]
    while dist[u]:
        v = hops[u]
        if v < 0:
            d, v = dist[u], len(dist)
            for w in steps[u]:
                if w < v and dist[w] < d:
                    v = w
            hops[u] = v
        u = v
        ids.append(u)
    return ids


def _cells(grid, ids) -> Path:
    """The cells of a path of ids. The tuple is built from a list, whose
    length is known: one grown from an iterator is resized, and once freed
    it is kept in the interpreter's free list of tuples of its length, which
    over a 15 s ``ct-search`` run held about 3 MiB more at peak."""
    return tuple([*map(grid.cell, ids)])


def _constraint_ids(c: Constraint, grid) -> tuple:
    """A :class:`Constraint` as the ``(agent, positive, u, v, t)`` tuple of
    ids that :func:`solve` keeps."""
    u, v = (c.loc, c.loc) if c.kind == "vertex" else c.loc
    return c.agent, c.sign == "positive", grid.index(u), grid.index(v), c.t


def low_level_search(instance: Instance, agent: int, constraints) -> Optional[Path]:
    """Minimum-termination-time constrained path for one agent, or None when
    no path meets the constraints.

    This is the public edge of :func:`_plan`, the search :func:`solve`
    runs on ids: it turns each :class:`Constraint` into ids and the ids of
    the path it returns back into cells.
    """
    grid = instance.map
    ids = [_constraint_ids(c, grid) for c in constraints]
    path = _plan(instance, agent, ids, [-1] * len(grid.steps))
    return None if path is None else _cells(grid, path)


def _plan(
    instance: Instance, agent: int, constraints, hops: list[int]
) -> Optional[tuple[int, ...]]:
    """:func:`low_level_search` on ids: the constraints are ``(agent,
    positive, u, v, t)`` tuples and the path a tuple of ids, or None.
    ``hops`` is the agent's next-hop list for :func:`_descent`.

    Space-time A* over (cell id, t) on the map's ``steps``, with the cached
    goal field d (the exact unconstrained distance) as heuristic. The path
    terminates only once no later negative constraint pins the goal cell
    and every positive constraint away from the goal has been consumed; the
    earliest such time is the floor. A state's key is f = t + d(v) lifted
    to the floor, and ties break toward higher t, then lower d(v), then
    lower id: the order of (f, -t, id) whenever the floor is at most
    d(start), and a deepest-first run toward the goal below the floor.

    A state is the int ``t * S + u`` (S = ``len(steps)``), and a heap entry
    the int ``((max(f, floor) * (T + 1) + T - t) * S + d(v)) * S + v`` for
    T the last constraint time, past which no state is pushed. The first
    state popped at or past T, whose descent A* would pop next, returns its
    tree path followed by that descent: from each cell, step to the lowest
    id one closer to the goal. With no constraint this is the start's
    descent (proofs in README).
    """
    grid = instance.map
    start, goal = map(grid.index, instance.agents[agent])
    steps = grid.steps
    size = len(steps)
    tables = _constraint_tables(constraints, agent, size)
    if tables is None:
        return None
    neg_v, neg_e, required = tables
    dist = instance.goal_fields[agent]
    if dist[start] < 0:
        return None
    if not (neg_v or neg_e or required):
        # the last constraint time is -1, so the start is past it
        return tuple(_descent(steps, dist, hops, start))
    if required.get(0, start) != start or start in neg_v:
        return None

    last = max(
        [s // size for s in neg_v] + [s // size // size for s in neg_e] + list(required)
    )
    floor = max(
        [s // size + 1 for s in neg_v if s % size == goal]
        + [t for t, u in required.items() if u != goal],
        default=0,
    )

    # every id reached shares the start's component: no distance is -1
    area = size * size
    scale = (last + 1) * area
    d = dist[start]
    open_heap = [max(d, floor) * scale + last * area + d * size + start]
    # parent guards every push, so each state is pushed and popped at most
    # once; forbidden states count as already reached, so one lookup screens
    # both
    parent: dict[int, Optional[int]] = dict.fromkeys(neg_v)
    parent[start] = -1
    while open_heap:
        key = heapq.heappop(open_heap)
        u = key % size
        t = last - key // area % (last + 1)
        if t >= last or (u == goal and t >= floor):
            waypoints = []
            state = parent[t * size + u]
            while state >= 0:
                waypoints.append(state % size)
                state = parent[state]
            return (*reversed(waypoints), *_descent(steps, dist, hops, u))
        nt = t + 1
        base = nt * size
        rank = (last - nt) * area
        req = required.get(nt)
        state = t * size + u
        for v in steps[u]:
            s = base + v
            if s in parent:
                continue
            if (v != u and s * size + u in neg_e) or (req is not None and req != v):
                continue
            parent[s] = state
            d = dist[v]
            f = nt + d
            heapq.heappush(
                open_heap, (f if f > floor else floor) * scale + rank + d * size + v
            )
    return None


def _violates(path: tuple[int, ...], agent: int, c: tuple) -> bool:
    """Whether a path of ids breaks one ``(agent, positive, u, v, t)``
    constraint (including implied negatives). The agent rests at its
    terminal id after the path ends."""
    owner, positive, u, v, t = c
    last = len(path) - 1
    now = path[min(t, last)]
    if u == v:
        hit = now == u
    else:
        before = path[min(t - 1, last)]
        if owner == agent:
            hit = t <= last and before == u and now == v
        else:
            hit = before == u or now == v or (before == v and now == u)
    if owner != agent:
        return positive and hit
    return not hit if positive else hit


def _branches(conflict: tuple, splitting: str) -> list[tuple]:
    """The constraints of a conflict's children: a negative one on each
    agent (classic), or a positive and a negative one on the first agent
    (disjoint). Agent j's edge constraint is the reverse move."""
    i, j, u, v, t = conflict
    if splitting == "classic":
        return [(i, False, u, v, t), (j, False, v, u, t)]
    return [(i, True, u, v, t), (i, False, u, v, t)]


def solve(instance: Instance, splitting: str = "classic") -> tuple[tuple[Path, ...], SolveStats]:
    """Optimal-makespan CBS. Deterministic: ties break on conflict count then
    generation order; conflicts resolve earliest-time first. Raises
    SearchLimitError rather than generate more than ``_CT_MAX_NODES`` nodes.

    The conflict tree works on cell ids (see :class:`CtNode`); the winning
    node's paths become cells only on return."""
    if splitting not in ("classic", "disjoint"):
        raise ValueError(f"unknown splitting {splitting!r}")
    grid = instance.map
    k = instance.k
    fields = instance.goal_fields
    dists = [fields[i][grid.index(s)] for i, (s, _) in enumerate(instance.agents)]
    if -1 in dists:
        raise UnsolvableError(f"agent {dists.index(-1)} cannot reach its goal")
    # each agent's cap is P(n_c, k_c) - 1 for the n_c cells and k_c agents
    # of its component: a shortest plan for one component repeats no
    # configuration of it (proof in README)
    goals = [grid.index(g) for _, g in instance.agents]
    horizons: list[Optional[int]] = [None] * k
    for i, f in enumerate(fields):
        if horizons[i] is None:
            group = [j for j, g in enumerate(goals) if f[g] >= 0]
            h = math.perm(len(f) - f.count(-1), len(group)) - 1
            for j in group:
                horizons[j] = h
    # each agent's next hops toward its goal, for this solve only
    hops = [[-1] * len(grid.steps) for _ in range(k)]

    calls = scanned = 0

    def search(agent, constraints):
        # the low level ends by its constraints alone; the cap applies here
        # (proof in README)
        nonlocal calls
        calls += 1
        path = _plan(instance, agent, constraints, hops[agent])
        return None if path is None or len(path) - 1 > horizons[agent] else path

    def make_node(constraints, paths, columns, depth, kept, steps) -> CtNode:
        # kept holds the conflicts of every step below the paths' end that
        # is not in steps
        nonlocal scanned
        scanned += len(steps)
        by_step = {**kept, **_scan(columns, steps)}
        return CtNode(
            constraints,
            paths,
            len(columns) - 1,
            by_step[min(by_step)][0] if by_step else None,
            sum(map(len, by_step.values())),
            depth,
            by_step,
            columns,
        )

    root_paths = tuple(search(i, ()) for i in range(k))
    for i, p in enumerate(root_paths):
        if p is None:
            raise UnsolvableError(f"agent {i} has no path within horizon {horizons[i]}")
    columns = _columns(root_paths)
    root = make_node((), root_paths, columns, 0, {}, range(len(columns)))

    open_heap = [(root.cost, root.n_conflicts, 0, root)]
    generated, expanded, max_depth = 1, 0, 0
    negative_applied = positive_applied = 0

    def stats(cost) -> SolveStats:
        return SolveStats(
            generated,
            expanded,
            max_depth,
            negative_applied,
            positive_applied,
            cost,
            calls,
            scanned,
        )

    while open_heap:
        _, _, _, node = heapq.heappop(open_heap)
        expanded += 1
        if node.conflict is None:
            paths = tuple(_cells(grid, p) for p in node.paths)
            return paths, stats(node.cost)
        # Every path of a node satisfies every constraint of that node: the
        # low level honours them all, and `replan` holds each agent whose
        # path can break the new one. A negative constraint binds only its
        # own agent, whose path made the conflict. A positive one on agent i
        # is met by i's path, which made the conflict, and that path stays
        # optimal under more constraints, so only the other agents whose
        # paths `_violates` it are replanned (proofs in README). Each branch
        # is broken by a path of this node (a negative one by its own
        # agent's path, a positive one by the other agent's), so no branch is
        # already a node constraint.
        for constraint in _branches(node.conflict, splitting):
            owner, positive = constraint[:2]
            constraints = (*node.constraints, constraint)
            paths = list(node.paths)
            if positive:
                replan = [
                    a
                    for a in range(k)
                    if a != owner and _violates(paths[a], a, constraint)
                ]
            else:
                replan = [owner]
            for agent in replan:
                paths[agent] = search(agent, constraints)
                if paths[agent] is None:
                    break
            if None in paths:
                continue
            if generated == _CT_MAX_NODES:
                raise SearchLimitError(
                    f"conflict tree reached the {_CT_MAX_NODES}-node limit "
                    f"at cost {node.cost}",
                    stats(node.cost),
                )
            # the child copies the parent's columns and rebuilds those where
            # a replanned agent's id changed and those past the parent's
            # end; a step keeps the parent's conflicts unless a replanned
            # agent's id changed at it or at the step before, or it lies
            # past the parent's last step (proof in README)
            end = max(map(len, paths))
            columns = node.columns[:end]
            shared = len(columns)
            stale = set(range(shared, end))
            for agent in replan:
                old, new = node.paths[agent], paths[agent]
                span = max(len(old), len(new))
                old += old[-1:] * (span - len(old))
                new += new[-1:] * (span - len(new))
                for t in compress(range(shared), map(ne, old, new)):
                    column = list(columns[t])
                    column[agent] = new[t]
                    columns[t] = tuple(column)
                    stale.update((t, t + 1))
            if end > shared:
                columns += _columns(paths, shared)
            kept = {t: c for t, c in node.by_step.items() if t < end and t not in stale}
            steps = sorted(t for t in stale if t < end)
            child = make_node(
                constraints, tuple(paths), columns, node.depth + 1, kept, steps
            )
            heapq.heappush(open_heap, (child.cost, child.n_conflicts, generated, child))
            generated += 1
            max_depth = max(max_depth, child.depth)
            if positive:
                positive_applied += 1
            else:
                negative_applied += 1
    # the last expanded node's conflict failed: its two agents share a cell,
    # so a component and a cap
    raise UnsolvableError(f"no solution within horizon {horizons[node.conflict[0]]}")


def validate(instance: Instance, paths) -> Optional[Violation]:
    """Earliest violation in a solution, or None if it is conflict-free."""
    if len(paths) != instance.k:
        raise ValueError("one path per agent required")
    grid = instance.map
    found: list[tuple[tuple, Violation]] = []

    for i, path in enumerate(paths):
        if not path:
            raise ValueError(f"agent {i} has an empty path")
        start, goal = instance.agents[i]
        if path[0] != start:
            found.append(((0, 0, i), Violation("start-mismatch", (i,), (path[0],), 0)))
        last = len(path) - 1
        if path[-1] != goal:
            found.append(
                ((last, 0, i), Violation("goal-mismatch", (i,), (path[-1],), last))
            )
        for t, cell in enumerate(path):
            if not grid.is_passable(cell):
                found.append(((t, 0, i), Violation("blocked-cell", (i,), (cell,), t)))
        for t in range(1, len(path)):
            a, b = path[t - 1], path[t]
            if a != b and not _adjacent(a, b):
                found.append(((t, 0, i), Violation("illegal-move", (i,), (a, b), t)))

    for conflict in find_conflicts(tuple(paths)):
        kind = "vertex-conflict" if conflict.kind == "vertex" else "edge-conflict"
        found.append(
            (
                (conflict.t, 1, conflict.agents[0]),
                Violation(kind, conflict.agents, (conflict.loc,), conflict.t),
            )
        )

    if not found:
        return None
    return min(found, key=lambda pair: pair[0])[1]


def empirical_bound_check(instance: Instance, stats: SolveStats) -> dict[str, float]:
    """The margin, in log2, of each budget over the generated node count:
    ``mdd_exponential``, ``recurrence`` and, where it holds, ``rec_genfunc``.
    Raises BoundViolationError when a margin is below -1e-9.

    Budgets: the exact per-agent MDD node sum (exponential bound), the
    recurrence at the edge-aware constraint budgets r = sum(M_i + E_i),
    s = kC, and the generating-function bound (e n)**(kC), which holds only
    for n >= 4 and is left out below that when kC > 0. Each agent's MDD
    (nodes, edges) at the optimal cost C is counted as :func:`mdd_counts`
    counts it, from the instance's cached goal field and no other BFS.
    """
    c = stats.optimal_cost
    k = instance.k
    log2_gen = log2_of_int(stats.generated)

    grid = instance.map
    mdd_sizes = [
        _sweep(grid, start, goal, c, d_goal)[2:]
        for (start, goal), d_goal in zip(instance.agents, instance.goal_fields)
    ]
    mdd_budget = float(sum(m for m, _ in mdd_sizes))
    r = sum(m + e for m, e in mdd_sizes)
    s = k * c
    rec_log2 = gf_log2 = 0.0
    if s:
        rec_log2 = eval_log(r, s).log2
        gf_log2 = None
        if grid.n >= 4:
            gf_log2 = bound_rec_genfunc(BoundInputs(n=grid.n, k=k, C=c)).log2

    margins = {
        "mdd_exponential": mdd_budget - log2_gen,
        "recurrence": rec_log2 - log2_gen,
    }
    if gf_log2 is not None:
        margins["rec_genfunc"] = gf_log2 - log2_gen
    bad = {name: m for name, m in margins.items() if m < -1e-9}
    if bad:
        raise BoundViolationError(
            f"conflict-tree size 2**{log2_gen:.3f} exceeds bounds {bad}"
        )
    return margins
