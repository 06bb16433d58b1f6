from __future__ import annotations

import heapq
import random

import numpy as np
import pytest

import cbsbounds.cbs as cbs
import cbsbounds.mdd as mdd
import cbsbounds.model as model
from cbsbounds import (
    Constraint,
    GridMap,
    Instance,
    SearchLimitError,
    UnsolvableError,
    build_mdd,
    empirical_bound_check,
    eval_log,
    find_conflicts,
    log2_of_int,
    low_level_search,
    mdd_size,
    path_cost,
    solve,
    validate,
)
from conftest import grid_from_rows, open_grid
from oracles import (
    MOVES,
    brute_force_conflicts,
    dijkstra_distance,
    dijkstra_field,
    joint_bfs_makespan,
    smallest_cell_descent,
    space_time_bfs_cost,
)


def check_instance(instance, expected_cost=None):
    """Solve both ways, validate, bound-check, and compare with the oracle."""
    oracle = joint_bfs_makespan(
        instance.map,
        [s for s, _ in instance.agents],
        [g for _, g in instance.agents],
    )
    assert oracle is not None
    if expected_cost is not None:
        assert oracle == expected_cost
    for splitting in ("classic", "disjoint"):
        paths, stats = solve(instance, splitting)
        assert stats.optimal_cost == oracle, splitting
        assert validate(instance, paths) is None
        assert stats.generated >= stats.expanded >= 1
        margins = empirical_bound_check(instance, stats)
        assert all(m >= 0 for m in margins.values())
    return oracle


def neighbours(grid, cell):
    x, y = cell
    return [(x + dx, y + dy) for dx, dy in MOVES if grid.is_passable((x + dx, y + dy))]


def assert_breaks_nothing(grid, path, start, goal, neg_v, neg_e):
    """A path from start to goal of waits and unit moves on passable cells,
    resting at the goal, that meets no negative vertex (cell, t) or edge
    (u, v, t) constraint."""
    assert path[0] == start and path[-1] == goal
    for a, b in zip(path, path[1:]):
        assert b == a or b in neighbours(grid, a)
    last = len(path) - 1
    for cell, t in neg_v:
        assert path[min(t, last)] != cell, (cell, t, path)
    for u, v, t in neg_e:
        assert not (t <= last and path[t - 1] == u and path[t] == v), (u, v, t, path)


class TestLowLevel:
    def test_unconstrained_is_shortest(self, open5):
        instance = Instance(open5, (((0, 0), (4, 4)),))
        path = low_level_search(instance, 0, frozenset())
        assert path_cost(path) == dijkstra_distance(open5, (0, 0), (4, 4))

    def test_off_path_constraint_keeps_cost(self):
        grid = grid_from_rows(["...", "@@@", "..."])
        instance = Instance(grid, (((0, 0), (2, 0)),))
        constraint = Constraint(0, "vertex", "negative", (0, 2), 1)
        path = low_level_search(instance, 0, frozenset({constraint}))
        assert path_cost(path) == 2

    def test_blocking_constraint_costs_detour(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 0), (2, 0)),))
        constraint = Constraint(0, "vertex", "negative", (1, 0), 1)
        path = low_level_search(instance, 0, frozenset({constraint}))
        oracle = space_time_bfs_cost(
            grid, (0, 0), (2, 0), {((1, 0), 1)}, set(), horizon=20
        )
        assert oracle == 3
        assert path_cost(path) == oracle
        assert path[1] != (1, 0)

    def test_matches_space_time_bfs_on_random_constraint_sets(self):
        # goal pins at late times lift the termination floor above d(start);
        # past the last constraint time the path is the smallest-cell descent
        rng = random.Random(31)
        cases = [
            (open_grid(4, 4), (0, 0), (3, 3)),
            (open_grid(5, 3), (0, 0), (4, 2)),
            (open_grid(1, 6), (0, 0), (0, 5)),
        ]
        while len(cases) < 11:
            mask = np.array([[rng.random() >= 0.2 for _ in range(6)] for _ in range(6)])
            grid = GridMap(6, 6, mask)
            start = rng.choice(sorted(grid.cells()))
            component = sorted(dijkstra_field(grid, start))
            if len(component) > 8:
                cases.append((grid, start, rng.choice(component)))
        lifted = 0
        for grid, start, goal in cases:
            instance = Instance(grid, ((start, goal),))
            hops = [-1] * len(grid.steps)  # shared, as by one agent in solve
            field = dijkstra_field(grid, start)
            cells, shortest = sorted(field), field[goal]
            for _ in range(30):
                neg_v = {
                    (rng.choice(cells), rng.randint(1, 8))
                    for _ in range(rng.randint(0, 6))
                }
                neg_v |= {
                    (goal, rng.randint(shortest, shortest + 6))
                    for _ in range(rng.randint(0, 2))
                }
                neg_e = set()
                for _ in range(rng.randint(0, 4)):
                    u = rng.choice(cells)
                    near = neighbours(grid, u)
                    if near:
                        neg_e.add((u, rng.choice(near), rng.randint(1, 8)))
                constraints = frozenset(
                    [Constraint(0, "vertex", "negative", cell, t) for cell, t in neg_v]
                    + [Constraint(0, "edge", "negative", (u, v), t) for u, v, t in neg_e]
                )
                last = max([t for _, t in neg_v] + [t for *_, t in neg_e], default=-1)
                floor = max([t + 1 for cell, t in neg_v if cell == goal], default=0)
                lifted += floor > shortest
                # past T* nothing is forbidden and every cell is at most
                # n - 1 steps from the goal, so this horizon loses no path
                horizon = max(last, 0) + grid.n
                cost = space_time_bfs_cost(grid, start, goal, neg_v, neg_e, horizon)
                path = low_level_search(instance, 0, constraints)
                index = grid.index
                ids = cbs._plan(
                    instance,
                    0,
                    [(0, False, index(cell), index(cell), t) for cell, t in neg_v]
                    + [(0, False, index(u), index(v), t) for u, v, t in neg_e],
                    hops,
                )
                assert path == (None if ids is None else tuple(map(grid.cell, ids)))
                if cost is None:
                    assert path is None
                    continue
                assert path is not None and path_cost(path) == cost
                assert_breaks_nothing(grid, path, start, goal, neg_v, neg_e)
                if len(path) > last + 1:
                    tail = smallest_cell_descent(grid, path[last + 1], goal)
                    assert path[last + 1 :] == tail
        assert lifted > 100

    def test_unbound_search_is_smallest_cell_descent(self):
        # with no constraint on the agent, the search returns the descent
        # that always steps to the smallest cell one closer to the goal
        rng = random.Random(53)
        descents = unreachable = 0
        while descents < 60:
            side = rng.randint(2, 9)
            blocked = rng.choice((0.0, 0.1, 0.2, 0.3))
            mask = np.array(
                [[rng.random() >= blocked for _ in range(side)] for _ in range(side)],
                dtype=bool,
            )
            cells = [(x, y) for y in range(side) for x in range(side) if mask[y, x]]
            if len(cells) < 2:
                continue
            grid = GridMap(side, side, mask)
            (start, other), (goal, other_goal) = rng.sample(cells, 2), rng.sample(cells, 2)
            instance = Instance(grid, ((start, goal), (other, other_goal)))
            near = next(
                (goal[0] + dx, goal[1] + dy)
                for dx, dy in MOVES
                if grid.in_bounds((goal[0] + dx, goal[1] + dy))
            )
            others = frozenset(
                {
                    Constraint(1, "vertex", "negative", goal, 1),
                    Constraint(1, "vertex", "negative", start, 0),
                    Constraint(1, "edge", "negative", (near, goal), 2),
                }
            )
            expected = smallest_cell_descent(grid, start, goal)
            for constraints in (frozenset(), others):
                assert low_level_search(instance, 0, constraints) == expected
            if expected is None:
                unreachable += 1
            else:
                descents += 1
        assert unreachable > 0

    def test_next_hop_descent_is_smallest_cell_descent(self):
        # one next-hop list serves every descent toward one goal: the first
        # round fills it as it goes, in a random order of starts, and the
        # second reads it
        rng = random.Random(59)
        for _ in range(20):
            side = rng.randint(2, 9)
            mask = [[rng.random() >= 0.25 for _ in range(side)] for _ in range(side)]
            if not any(map(any, mask)):
                continue
            grid = GridMap(side, side, mask)
            goal = rng.choice(sorted(grid.cells()))
            dist = Instance(grid, ((goal, goal),)).goal_fields[0]
            reached = [u for u, d in enumerate(dist) if d >= 0]
            expected = {
                u: smallest_cell_descent(grid, grid.cell(u), goal) for u in reached
            }
            hops = [-1] * len(grid.steps)
            for _ in range(2):
                for u in rng.sample(reached, len(reached)):
                    path = cbs._descent(grid.steps, dist, hops, u)
                    assert tuple(map(grid.cell, path)) == expected[u]
                assert all((hops[u] >= 0) == (dist[u] > 0) for u in reached)

    def test_goal_constraint_delays_termination(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 0), (2, 0)),))
        constraint = Constraint(0, "vertex", "negative", (2, 0), 5)
        path = low_level_search(instance, 0, frozenset({constraint}))
        assert path_cost(path) >= 6
        assert path[5] != (2, 0)

    def test_positive_constraint_routes_through(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 0), (2, 0)),))
        constraint = Constraint(0, "vertex", "positive", (1, 1), 2)
        path = low_level_search(instance, 0, frozenset({constraint}))
        assert path[2] == (1, 1)

    def test_edge_constraint_validation(self):
        with pytest.raises(ValueError, match="4-adjacent"):
            Constraint(0, "edge", "negative", ((0, 0), (2, 0)), 1)
        with pytest.raises(ValueError, match="t >= 1"):
            Constraint(0, "edge", "negative", ((0, 0), (1, 0)), 0)

    def test_positive_edge_constraint_forces_traversal(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 0), (2, 0)),))
        pinned = Constraint(0, "edge", "positive", ((1, 1), (2, 1)), 3)
        path = low_level_search(instance, 0, frozenset({pinned}))
        assert path[2] == (1, 1) and path[3] == (2, 1)
        assert path[-1] == (2, 0)

    def test_other_agents_positive_implies_negatives(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 0), (2, 0)), ((2, 0), (0, 0))))
        # agent 1 is pinned to the move (1,0)->(0,0) arriving at t=2, so agent 0
        # must keep off (1,0)@1, (0,0)@2 and must not swap against it
        pinned = Constraint(1, "edge", "positive", ((1, 0), (0, 0)), 2)
        path = low_level_search(instance, 0, frozenset({pinned}))
        assert path[1] != (1, 0)
        assert len(path) <= 2 or path[2] != (0, 0)
        assert not (path[1] == (0, 0) and path[2] == (1, 0))


class TestSolve:
    def test_disjoint_rows_root_solves(self):
        grid = open_grid(5)
        instance = Instance(grid, (((0, 0), (4, 0)), ((0, 4), (4, 4))))
        paths, stats = solve(instance)
        assert stats.optimal_cost == 4
        assert stats.generated == 1
        assert stats.expanded == 1
        assert validate(instance, paths) is None

    def test_root_only_counters(self):
        # no conflict: one low-level call per agent, one scan of each step
        grid = open_grid(5)
        instance = Instance(grid, (((0, 0), (4, 0)), ((0, 4), (4, 4)), ((2, 2), (2, 1))))
        _, stats = solve(instance)
        assert stats.generated == 1
        assert stats.low_level_calls == instance.k
        assert stats.conflict_steps_scanned == stats.optimal_cost + 1

    def test_crossing_agents_matches_joint_oracle(self):
        grid = open_grid(3)
        instance = Instance(grid, (((0, 1), (2, 1)), ((1, 0), (1, 2))))
        check_instance(instance)

    def test_swap_corridor_fixture(self, pocket_corridor):
        cost = check_instance(pocket_corridor)
        assert cost > dijkstra_distance(pocket_corridor.map, (0, 0), (4, 0))

    def test_best_first_expansion_costs(self, pocket_corridor, monkeypatch):
        # the CT heap pops (cost, n_conflicts, seq, node) tuples; the A*
        # heap pops ints
        costs = []

        class RecordingHeap:
            heappush = staticmethod(heapq.heappush)

            @staticmethod
            def heappop(heap):
                item = heapq.heappop(heap)
                if isinstance(item, tuple):
                    costs.append(item[0])
                return item

        monkeypatch.setattr(cbs, "heapq", RecordingHeap)
        _, stats = solve(pocket_corridor, "classic")
        assert len(costs) == stats.expanded > 1
        assert costs == sorted(costs)
        assert stats.negative_applied == stats.generated - 1
        _, stats = solve(pocket_corridor, "disjoint")
        assert stats.positive_applied > 0

    def test_deterministic_runs(self, pocket_corridor):
        first = solve(pocket_corridor, "disjoint")
        second = solve(pocket_corridor, "disjoint")
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_unsolvable_corridor_swap(self):
        grid = grid_from_rows(["..."])
        instance = Instance(grid, (((0, 0), (2, 0)), ((2, 0), (0, 0))))
        with pytest.raises(UnsolvableError, match="horizon"):
            solve(instance)

    @pytest.mark.parametrize("splitting", ["classic", "disjoint"])
    def test_swap_beside_a_disconnected_block_is_unsolvable(self, splitting, monkeypatch):
        # the swap's agents are capped by their own 3 cells and 2 agents, at
        # P(3, 2) - 1 = 5 as on the bare swap; under a cap over the whole map
        # (n = 147, k = 26) both splittings pass this 1,000-node limit; the
        # message names the cap of the agents in the conflict that failed
        monkeypatch.setattr(cbs, "_CT_MAX_NODES", 1000)
        grid = grid_from_rows(["...@" + "." * 12] + ["@@@@" + "." * 12] * 11)
        block = [(x, y) for y in range(12) for x in range(4, 16)][:24]
        swap = (((0, 0), (2, 0)), ((2, 0), (0, 0)))
        instance = Instance(grid, swap + tuple((cell, cell) for cell in block))
        with pytest.raises(UnsolvableError, match="horizon 5$"):
            solve(instance, splitting)

    def test_root_without_path_is_unsolvable(self, pocket_corridor, monkeypatch):
        monkeypatch.setattr(cbs, "_plan", lambda *args: None)
        with pytest.raises(UnsolvableError, match="agent 0 has no path"):
            solve(pocket_corridor)

    def test_unreachable_goal(self):
        grid = grid_from_rows([".@."])
        instance = Instance(grid, (((0, 0), (0, 0)), ((2, 0), (2, 0))))
        ok_paths, _ = solve(instance)  # both rest in place
        assert validate(instance, ok_paths) is None
        blocked = Instance(grid_from_rows([".@.", "@@@", "..."]), (((0, 0), (0, 2)),))
        with pytest.raises(UnsolvableError, match="reach"):
            solve(blocked)

    def test_three_agent_bottleneck(self):
        grid = grid_from_rows(
            [
                ".....",
                "@@.@@",
                ".....",
            ]
        )
        instance = Instance(
            grid,
            (((0, 0), (0, 2)), ((2, 0), (2, 2)), ((4, 0), (4, 2))),
        )
        paths, stats = solve(instance, "disjoint")
        assert validate(instance, paths) is None
        margins = empirical_bound_check(instance, stats)
        assert margins["recurrence"] >= 0


def corridor_with_bay(length, bay):
    """A corridor along y = 1 with one bay cell above x = bay; the two agents
    at its left end swap places, so one of them must wait in the bay."""
    grid = grid_from_rows(
        ["".join("." if x == bay else "@" for x in range(length)), "." * length]
    )
    return Instance(grid, (((0, 1), (1, 1)), ((1, 1), (0, 1))))


class TestSearchLimit:
    @pytest.mark.parametrize("splitting", ["classic", "disjoint"])
    def test_bay_corridor_stops_at_the_limit(self, splitting, monkeypatch):
        # at the default limit classic splitting runs 50,000 nodes here
        monkeypatch.setattr(cbs, "_CT_MAX_NODES", 100)
        with pytest.raises(SearchLimitError, match="100-node limit") as caught:
            solve(corridor_with_bay(7, 5), splitting)
        stats = caught.value.stats
        assert stats.generated == 100
        assert 1 <= stats.expanded <= stats.generated
        # the node being expanded: a lower bound on the optimum, 11
        assert 1 <= stats.optimal_cost <= 11

    @pytest.mark.parametrize(
        "length, bay", [(n, b) for n in range(4, 8) for b in range(1, n - 1)]
    )
    def test_solve_matches_joint_oracle_or_stops(self, length, bay, monkeypatch):
        # the optimum of (7, 5) is 11, above the former cap n + k * max d =
        # 10, under which disjoint splitting emptied its tree after 3,467
        # nodes and raised UnsolvableError; 4,000 nodes keep that in reach
        monkeypatch.setattr(cbs, "_CT_MAX_NODES", 4000)
        instance = corridor_with_bay(length, bay)
        oracle = joint_bfs_makespan(
            instance.map,
            [s for s, _ in instance.agents],
            [g for _, g in instance.agents],
        )
        assert oracle is not None
        for splitting in ("classic", "disjoint"):
            try:
                _, stats = solve(instance, splitting)
            except SearchLimitError:
                continue
            assert stats.optimal_cost == oracle, splitting


def contended_instances(seed, count):
    """Seeded 8 x 8 maps with about 10% of cells blocked and seven agents,
    each goal within distance 5 of its start: crowded enough that most
    solves branch, and at this seed no solve takes more than a fraction of
    a second."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mask = np.array(
            [[rng.random() >= 0.1 for _ in range(8)] for _ in range(8)], dtype=bool
        )
        grid = GridMap(8, 8, mask)
        cells = [(x, y) for y in range(8) for x in range(8) if mask[y, x]]
        component = sorted(dijkstra_field(grid, rng.choice(cells)))
        if len(component) < 14:
            continue
        agents, goals = [], set()
        for start in rng.sample(component, 7):
            near = [
                cell
                for cell, d in sorted(dijkstra_field(grid, start).items())
                if 1 <= d <= 5 and cell not in goals
            ]
            goal = rng.choice(near)
            goals.add(goal)
            agents.append((start, goal))
        out.append(Instance(grid, tuple(agents)))
    return out


def conflict_ids(c):
    """A Conflict as the (i, j, u, v, t) tuple that solve keeps."""
    u, v = (c.loc, c.loc) if c.kind == "vertex" else c.loc
    return (*c.agents, u, v, c.t)


class TestConstraintTree:
    def test_every_node_path_satisfies_every_node_constraint(self, monkeypatch):
        # the invariant that keeps a branch from repeating a node constraint
        made = cbs.CtNode
        seen = {"nodes": 0, "positive": 0}

        def checked_node(constraints, paths, *rest):
            seen["nodes"] += 1
            for c in constraints:
                seen["positive"] += c[1]
                for agent, path in enumerate(paths):
                    assert not cbs._violates(path, agent, c), (c, agent, path)
            return made(constraints, paths, *rest)

        monkeypatch.setattr(cbs, "CtNode", checked_node)
        for instance in contended_instances(2, 40):
            for splitting in ("classic", "disjoint"):
                solve(instance, splitting)
        assert seen["nodes"] > 1000 and seen["positive"] > 0

    def test_every_node_keeps_the_conflicts_of_a_full_scan(self, monkeypatch):
        # a child rescans only the steps its replans changed; what it keeps
        # must be what a scan of all its paths finds
        made = cbs.CtNode
        seen = {"nodes": 0, "steps": 0, "scanned": 0}

        def checked_node(
            constraints, paths, cost, conflict, n_conflicts, depth, by_step, columns
        ):
            seen["nodes"] += 1
            seen["steps"] += cost + 1
            # the patched columns are the padded paths, step by step
            end = max(map(len, paths))
            assert columns == [
                tuple(p[min(t, len(p) - 1)] for p in paths) for t in range(end)
            ]
            full = [conflict_ids(c) for c in find_conflicts(paths)]
            assert conflict == (full[0] if full else None)
            assert n_conflicts == len(full)
            assert [c for t in sorted(by_step) for c in by_step[t]] == full
            assert all(step and all(c[4] == t for c in step) for t, step in by_step.items())
            return made(
                constraints, paths, cost, conflict, n_conflicts, depth, by_step, columns
            )

        monkeypatch.setattr(cbs, "CtNode", checked_node)
        for instance in contended_instances(2, 30):
            for splitting in ("classic", "disjoint"):
                seen["scanned"] += solve(instance, splitting)[1].conflict_steps_scanned
        # most steps of most children were kept, not scanned again
        assert seen["nodes"] > 1000 and seen["scanned"] < seen["steps"] / 2

    def test_positive_branch_keeps_the_path_a_replan_would_find(self, monkeypatch):
        # a positive constraint on agent i is met by i's path, so solve
        # keeps that path; the low level under the child's constraints must
        # return it unchanged
        made_node, made_branches = cbs.CtNode, cbs._branches
        now = {}
        seen = {"positive": 0}

        def recording_branches(conflict, splitting):
            for constraint in made_branches(conflict, splitting):
                now["branch"] = constraint
                yield constraint

        def checked_node(constraints, paths, *rest):
            branch = now.pop("branch", None)
            if branch is not None and branch[1]:
                seen["positive"] += 1
                i, instance = branch[0], now["instance"]
                hops = [-1] * len(instance.map.steps)
                again = cbs._plan(instance, i, constraints, hops)
                assert again == paths[i], (branch, paths[i], again)
            return made_node(constraints, paths, *rest)

        monkeypatch.setattr(cbs, "_branches", recording_branches)
        monkeypatch.setattr(cbs, "CtNode", checked_node)
        for instance in contended_instances(2, 30):
            now.clear()
            now["instance"] = instance
            solve(instance, "disjoint")
        assert seen["positive"] > 100


def random_walk(rng, side, length):
    """A path of waits and unit moves inside a side x side square."""
    cell = (rng.randrange(side), rng.randrange(side))
    path = [cell]
    for _ in range(length - 1):
        dx, dy = rng.choice(((0, 0),) + MOVES)
        if 0 <= cell[0] + dx < side and 0 <= cell[1] + dy < side:
            cell = (cell[0] + dx, cell[1] + dy)
        path.append(cell)
    return tuple(path)


def conflict_rows(paths):
    return [(c.agents, c.kind, c.loc, c.t) for c in find_conflicts(paths)]


class TestFindConflicts:
    def test_hand_built_crowd(self):
        # three agents on (1, 0) from t = 1, agent 2 standing still from the
        # start; agents 3 and 4 make the same move against agent 5's
        paths = (
            ((0, 0), (1, 0)),
            ((2, 0), (1, 0), (1, 0)),
            ((1, 0),),
            ((0, 1), (1, 1)),
            ((0, 1), (1, 1)),
            ((1, 1), (0, 1)),
        )
        expected = [
            ((3, 4), "vertex", (0, 1), 0),
            ((0, 1), "vertex", (1, 0), 1),
            ((0, 2), "vertex", (1, 0), 1),
            ((3, 4), "vertex", (1, 1), 1),
            ((3, 5), "edge", ((0, 1), (1, 1)), 1),
            ((4, 5), "edge", ((0, 1), (1, 1)), 1),
            ((0, 1), "vertex", (1, 0), 2),
            ((0, 2), "vertex", (1, 0), 2),
            ((3, 4), "vertex", (1, 1), 2),
        ]
        assert brute_force_conflicts(paths) == expected
        assert conflict_rows(paths) == expected

    def test_empty_path_is_refused(self):
        # padding an empty path would hide every conflict of the others
        with pytest.raises(ValueError, match="at least one cell"):
            find_conflicts((((0, 0), (1, 0)), ((1, 0), (0, 0)), ()))

    def test_matches_brute_force_on_random_path_sets(self):
        # on 2 x 2 and 3 x 3 squares, crowds and shared moves are common
        rng = random.Random(47)
        crowded = same_move = uneven = swap_beside_wait = 0
        for _ in range(400):
            side = rng.choice((2, 3))
            paths = tuple(
                random_walk(rng, side, rng.randint(1, 8))
                for _ in range(rng.randint(2, 6))
            )
            expected = brute_force_conflicts(paths)
            assert conflict_rows(paths) == expected
            uneven += len({len(p) for p in paths}) > 1
            vertex = [(loc, t) for _, kind, loc, t in expected if kind == "vertex"]
            swaps = [(loc, t) for _, kind, loc, t in expected if kind == "edge"]
            # three agents on one cell, and two agents swapping with a third
            crowded += len(vertex) > len(set(vertex))
            same_move += len(swaps) > len(set(swaps))
            # a swap beside a waiting agent and no shared cell: only the
            # swap screen lets the step through, and the wait is in its count
            for t in {t for _, t in swaps} - {t for _, t in vertex}:
                at = [(p[min(t - 1, len(p) - 1)], p[min(t, len(p) - 1)]) for p in paths]
                swap_beside_wait += any(u == v for u, v in at)
        assert crowded and same_move and uneven and swap_beside_wait


class TestValidate:
    def test_stationary_agents_ok(self, open5):
        instance = Instance(open5, (((0, 0), (0, 0)), ((4, 4), (4, 4))))
        assert validate(instance, (((0, 0),), ((4, 4),))) is None

    def test_swap_is_edge_conflict(self, open5):
        instance = Instance(open5, (((0, 0), (1, 0)), ((1, 0), (0, 0))))
        paths = (((0, 0), (1, 0)), ((1, 0), (0, 0)))
        violation = validate(instance, paths)
        assert violation.kind == "edge-conflict"
        assert violation.t == 1

    def test_vertex_conflict_with_rester(self, open5):
        instance = Instance(open5, (((0, 0), (0, 0)), ((2, 0), (1, 0))))
        paths = (((0, 0),), ((2, 0), (1, 0), (0, 0), (1, 0)))
        violation = validate(instance, paths)
        assert violation.kind == "vertex-conflict"
        assert violation.t == 2

    def test_endpoint_and_move_errors(self, open5):
        instance = Instance(open5, (((0, 0), (2, 0)),))
        assert validate(instance, (((0, 0), (2, 0)),)).kind == "illegal-move"
        assert validate(instance, (((1, 0), (2, 0)),)).kind == "start-mismatch"
        assert validate(instance, (((0, 0), (1, 0)),)).kind == "goal-mismatch"


class TestEmpiricalCheck:
    def test_single_agent_trivial(self, open5):
        instance = Instance(open5, (((0, 0), (4, 4)),))
        paths, stats = solve(instance)
        assert stats.generated == 1
        margins = empirical_bound_check(instance, stats)
        # log2 of one generated node is 0, so each margin is its budget
        nodes, _ = mdd_size(build_mdd(open5, (0, 0), (4, 4), stats.optimal_cost))
        assert margins["mdd_exponential"] == nodes
        assert all(m >= 0 for m in margins.values())

    def test_budgets_from_built_mdds_at_the_optimal_cost(self, pocket_corridor):
        _, stats = solve(pocket_corridor)
        sizes = [
            mdd_size(build_mdd(pocket_corridor.map, s, g, stats.optimal_cost))
            for s, g in pocket_corridor.agents
        ]
        margins = empirical_bound_check(pocket_corridor, stats)
        log2_generated = log2_of_int(stats.generated)
        assert margins["mdd_exponential"] == sum(m for m, _ in sizes) - log2_generated
        r = sum(m + e for m, e in sizes)
        s = pocket_corridor.k * stats.optimal_cost
        assert margins["recurrence"] == eval_log(r, s).log2 - log2_generated

    def test_runs_no_bfs_with_cached_goal_fields(self, monkeypatch, pocket_corridor):
        # the counts take the instance's goal fields, and d_s(goal) =
        # d_g(start) stands in for a field from the start
        _, stats = solve(pocket_corridor)
        assert len(pocket_corridor.goal_fields) == pocket_corridor.k
        real, calls = model._bfs, []

        def counting(grid, source):
            calls.append(source)
            return real(grid, source)

        for module in (model, mdd, cbs):
            if hasattr(module, "_bfs"):
                monkeypatch.setattr(module, "_bfs", counting)
        mdd.mdd_counts(pocket_corridor.map, (0, 0), (4, 0), 4)
        assert calls == [(4, 0)]  # the patch sees the BFS the counts run
        calls.clear()
        empirical_bound_check(pocket_corridor, stats)
        assert calls == []

    def test_two_agents_on_4x4(self):
        grid = open_grid(4)
        instance = Instance(grid, (((0, 0), (3, 3)), ((3, 0), (0, 3))))
        check_instance(instance)

    def test_zero_cost_instance(self, open5):
        instance = Instance(open5, (((0, 0), (0, 0)), ((4, 4), (4, 4))))
        paths, stats = solve(instance)
        assert stats.optimal_cost == 0
        assert stats.generated == 1
        margins = empirical_bound_check(instance, stats)
        # no budget at cost 0 but the two one-node MDDs, and one node used
        assert margins == {"mdd_exponential": 2.0, "recurrence": 0.0, "rec_genfunc": 0.0}
