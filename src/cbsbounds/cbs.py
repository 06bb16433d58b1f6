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
from itertools import compress, count
from operator import eq, ne
from typing import Optional

from .bounds import BoundInputs, bound_rec_genfunc
from .logspace import log2_of_int
from .mdd import _sweep
from .model import Cell, Instance, Path, path_cost
from .recurrence import eval_log


# Most conflict-tree nodes solve generates. Classic splitting on README's
# 8-cell corridor with a bay reaches the limit in 5.9 s on a shared 2-core
# host, at 107 MiB peak RSS: about 2 KiB per node over the 16 MiB of a
# process that has imported the package, which does not import numpy.
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
    """One constraint-tree node: constraints, paths, cost, pending conflict.

    ``by_step`` maps each step that has conflicts to them, as :func:`_scan`
    finds them, so that a child rescans only the steps its replans changed.
    """

    constraints: frozenset[Constraint]
    paths: tuple[Path, ...]
    cost: int
    conflict: Optional[Conflict]
    n_conflicts: int
    depth: int
    by_step: dict[int, list[Conflict]]


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
    This is :func:`_scan` over every step up to the last path's end."""
    if not all(paths):
        raise ValueError("every path needs at least one cell")
    by_step = _scan(paths, range(max(len(p) for p in paths)))
    return [c for step in by_step.values() for c in step]


def _scan(paths: tuple[Path, ...], steps) -> dict[int, list[Conflict]]:
    """The conflicts at each step of ``steps`` (ascending, each below the
    last path's end) that has any.

    A step's conflicts depend only on the agents' cells at that step and
    the one before. Each step is screened on its set of cells: the vertex
    scan runs only where two agents share a cell, and the swap scan only
    there or where more cells stay occupied from the step before than one
    plus the number of waiting agents (a swap keeps both its cells
    occupied; see README)."""
    k = len(paths)
    end = max(len(p) for p in paths)
    columns = list(zip(*[p + p[-1:] * (end - len(p)) for p in paths]))
    found: dict[int, list[Conflict]] = {}
    held = -2  # the step whose cells `last` holds
    last: set[Cell] = set()
    for t in steps:
        before = columns[t - 1] if t else ()
        if t != held + 1:
            last = set(before)
        here = columns[t]
        cells = set(here)
        crowded = len(cells) < k
        out = []
        if crowded:
            occupied: dict[Cell, int] = {}
            for i, cell in enumerate(here):
                first = occupied.setdefault(cell, i)
                if first != i:
                    out.append(Conflict((first, i), "vertex", cell, t))
        if crowded or len(cells & last) > sum(map(eq, before, here)) + 1:
            moves: dict[tuple[Cell, Cell], list[int]] = {}
            for j, move in enumerate(zip(before, here)):
                if move[0] != move[1]:
                    moves.setdefault(move, []).append(j)
            for i, (u, v) in enumerate(zip(before, here)):
                for j in moves.get((v, u), ()):
                    if j > i:
                        out.append(Conflict((i, j), "edge", (u, v), t))
        if out:
            found[t] = out
        last, held = cells, t
    return found


def _constraint_tables(constraints, agent, grid):
    """Split a constraint set into the tables the low level consults.

    With S = ``len(grid.steps)``, a state (cell id u, time t) is the int
    ``t * S + u``. Returns (neg_vertex, neg_edge, required): the forbidden
    states, the forbidden moves u -> v arriving at t as ``(t * S + v) * S + u``,
    and required mapping t -> the id the agent must occupy. Positive
    constraints of other agents turn into negative constraints here. Returns
    None when the positives are contradictory.
    """
    index = grid.index
    size = len(grid.steps)
    neg_v: set[int] = set()
    neg_e: set[int] = set()
    required: dict[int, int] = {}

    def require(t: int, u: int) -> bool:
        return required.setdefault(t, u) == u

    for c in constraints:
        u, v = (index(c.loc),) * 2 if c.kind == "vertex" else map(index, c.loc)
        if c.agent == agent:
            if c.sign == "negative":
                if c.kind == "vertex":
                    neg_v.add(c.t * size + u)
                else:
                    neg_e.add((c.t * size + v) * size + u)
            else:
                if c.kind == "vertex":
                    if not require(c.t, u):
                        return None
                else:
                    if not (require(c.t - 1, u) and require(c.t, v)):
                        return None
        elif c.sign == "positive":
            # someone else is pinned there; this agent must keep clear
            if c.kind == "vertex":
                neg_v.add(c.t * size + u)
            else:
                neg_v.add((c.t - 1) * size + u)
                neg_v.add(c.t * size + v)
                neg_e.add((c.t * size + u) * size + v)
    return neg_v, neg_e, required


def _descent(grid, dist: list[int], u: int) -> list[Cell]:
    """The cells from id u to the goal of ``dist``, stepping from each cell
    to its lowest-id neighbour one closer to the goal."""
    steps = grid.steps
    cells = [grid.cell(u)]
    while dist[u]:
        u = min(v for v in steps[u] if dist[v] < dist[u])
        cells.append(grid.cell(u))
    return cells


def low_level_search(instance: Instance, agent: int, constraints) -> Optional[Path]:
    """Minimum-termination-time constrained path for one agent, or None when
    no path meets the constraints.

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
    start, goal = (grid.index(cell) for cell in instance.agents[agent])
    tables = _constraint_tables(constraints, agent, grid)
    if tables is None:
        return None
    neg_v, neg_e, required = tables
    dist = instance.goal_fields[agent]
    if dist[start] < 0:
        return None
    if not (neg_v or neg_e or required):
        # the last constraint time is -1, so the start is past it
        return tuple(_descent(grid, dist, start))
    if required.get(0, start) != start or start in neg_v:
        return None

    steps = grid.steps
    size = len(steps)
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
                waypoints.append(grid.cell(state % size))
                state = parent[state]
            return (*reversed(waypoints), *_descent(grid, dist, u))
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


def _violates(path: Path, agent: int, c: Constraint) -> bool:
    """Whether a path breaks one constraint (including implied negatives).
    The agent rests at its terminal cell after the path ends."""
    last = len(path) - 1
    now = path[min(c.t, last)]
    if c.kind == "vertex":
        hit = now == c.loc
    else:
        u, v = c.loc
        before = path[min(c.t - 1, last)]
        if c.agent == agent:
            hit = c.t <= last and before == u and now == v
        else:
            hit = before == u or now == v or (before == v and now == u)
    if c.agent != agent:
        return c.sign == "positive" and hit
    return hit if c.sign == "negative" else not hit


def _moved_steps(old: Path, new: Path) -> list[int]:
    """The steps at which two paths of one agent, each resting at its final
    cell, hold the agent in different cells."""
    end = max(len(old), len(new))
    old = old + old[-1:] * (end - len(old))
    new = new + new[-1:] * (end - len(new))
    return list(compress(count(), map(ne, old, new)))


def _branches(conflict: Conflict, splitting: str) -> list[Constraint]:
    i, j = conflict.agents
    if conflict.kind == "vertex":
        loc_i = loc_j = conflict.loc
    else:
        u, v = conflict.loc
        loc_i, loc_j = (u, v), (v, u)
    if splitting == "classic":
        return [
            Constraint(i, conflict.kind, "negative", loc_i, conflict.t),
            Constraint(j, conflict.kind, "negative", loc_j, conflict.t),
        ]
    return [
        Constraint(i, conflict.kind, "positive", loc_i, conflict.t),
        Constraint(i, conflict.kind, "negative", loc_i, conflict.t),
    ]


def solve(instance: Instance, splitting: str = "classic") -> tuple[tuple[Path, ...], SolveStats]:
    """Optimal-makespan CBS. Deterministic: ties break on conflict count then
    generation order; conflicts resolve earliest-time first. Raises
    SearchLimitError rather than generate more than ``_CT_MAX_NODES`` nodes."""
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

    calls = scanned = 0

    def search(agent, constraints):
        # the low level ends by its constraints alone; the cap applies here
        # (proof in README)
        nonlocal calls
        calls += 1
        path = low_level_search(instance, agent, constraints)
        return None if path is None or path_cost(path) > horizons[agent] else path

    def make_node(constraints, paths, depth, kept, steps) -> CtNode:
        # kept holds the conflicts of every step below the paths' end that
        # is not in steps
        nonlocal scanned
        scanned += len(steps)
        by_step = {**kept, **_scan(paths, steps)}
        return CtNode(
            constraints,
            paths,
            max(path_cost(p) for p in paths),
            by_step[min(by_step)][0] if by_step else None,
            sum(map(len, by_step.values())),
            depth,
            by_step,
        )

    root_paths = tuple(search(i, frozenset()) for i in range(k))
    for i, p in enumerate(root_paths):
        if p is None:
            raise UnsolvableError(f"agent {i} has no path within horizon {horizons[i]}")
    root = make_node(frozenset(), root_paths, 0, {}, range(max(map(len, root_paths))))

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
            return node.paths, stats(node.cost)
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
            constraints = node.constraints | {constraint}
            paths = list(node.paths)
            if constraint.sign == "negative":
                replan = [constraint.agent]
            else:
                replan = [
                    a
                    for a in range(k)
                    if a != constraint.agent and _violates(paths[a], a, constraint)
                ]
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
            # a step keeps the parent's conflicts unless a replanned agent's
            # cell changed at it or at the step before, or it lies past the
            # parent's last step (proof in README)
            end = max(map(len, paths))
            stale = set(range(node.cost + 1, end))
            for agent in replan:
                moved = _moved_steps(node.paths[agent], paths[agent])
                stale.update(moved, [t + 1 for t in moved])
            kept = {t: c for t, c in node.by_step.items() if t < end and t not in stale}
            steps = sorted(t for t in stale if t < end)
            child = make_node(constraints, tuple(paths), node.depth + 1, kept, steps)
            heapq.heappush(open_heap, (child.cost, child.n_conflicts, generated, child))
            generated += 1
            max_depth = max(max_depth, child.depth)
            if constraint.sign == "negative":
                negative_applied += 1
            else:
                positive_applied += 1
    # the last expanded node's conflict failed: its two agents share a cell,
    # so a component and a cap
    raise UnsolvableError(
        f"no solution within horizon {horizons[node.conflict.agents[0]]}"
    )


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
