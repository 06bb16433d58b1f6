from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from cbsbounds import (
    Instance,
    analytic_size_bound,
    build_mdd,
    layer_bound,
    mdd_counts,
    mdd_size,
    radius_size_bound,
    validate,
    with_edges_bound,
)
from cbsbounds import mdd as mdd_module
from cbsbounds.mdd import mdd_widths
from conftest import grid_from_rows, open_grid, random_grid
from oracles import (
    brute_force_radius,
    dijkstra_field,
    mdd_edge_oracle,
    mdd_layer_oracle,
    mdd_size_oracle,
)


class TestBuildMdd:
    def test_cost_zero_singleton(self, open5):
        diagram = build_mdd(open5, (2, 2), (2, 2), 0)
        assert mdd_size(diagram) == (1, 0)
        assert diagram.layers[0] == frozenset({(2, 2)})

    def test_center_cost_two(self, open5):
        diagram = build_mdd(open5, (2, 2), (2, 2), 2)
        assert [len(layer) for layer in diagram.layers] == [1, 5, 1]
        oracle = mdd_layer_oracle(open5, (2, 2), (2, 2), 2)
        assert [set(layer) for layer in diagram.layers] == oracle
        assert mdd_size(diagram)[0] == 7

    def test_open_grid_layer_formula(self):
        # centered on a (2C+1)^2 grid, layer t holds the full radius-t ball
        for cost in (2, 4, 6):
            side = 2 * cost + 1
            grid = open_grid(side)
            center = (cost, cost)
            diagram = build_mdd(grid, center, center, cost)
            for t in range(cost // 2 + 1):
                assert len(diagram.layers[t]) == 2 * t * (t + 1) + 1

    def test_membership_oracle_exhaustive(self):
        from oracles import dijkstra_distance

        rng = random.Random(5)
        maps = [
            grid_from_rows(
                [
                    "".join("." if rng.random() > 0.2 else "@" for _ in range(9))
                    for _ in range(9)
                ]
            )
            for _ in range(4)
        ]
        maps.append(open_grid(7))
        checked = 0
        for grid in maps:
            cells = list(grid.cells())
            pairs = [
                (a, b)
                for a in cells[:6]
                for b in cells
                if dijkstra_distance(grid, a, b) is not None
                and dijkstra_distance(grid, a, b) <= 8
            ]
            for start, goal in rng.sample(pairs, min(3, len(pairs))):
                base = dijkstra_distance(grid, start, goal)
                for cost in (base, base + 1, base + 4):
                    if cost > 12:
                        continue
                    diagram = build_mdd(grid, start, goal, cost)
                    oracle = mdd_layer_oracle(grid, start, goal, cost)
                    assert [set(layer) for layer in diagram.layers] == oracle
                    checked += 1
        assert checked >= 12

    def test_every_node_connected(self, open5):
        diagram = build_mdd(open5, (0, 0), (4, 2), 8)
        for t in range(diagram.cost):
            for node in diagram.layers[t]:
                assert diagram.edges[t][node], f"no outgoing edge at t={t}"
        for t in range(1, diagram.cost + 1):
            incoming = {v for succ in diagram.edges[t - 1].values() for v in succ}
            assert diagram.layers[t] <= incoming

    def test_sampled_paths_are_valid(self, open5):
        rng = random.Random(13)
        diagram = build_mdd(open5, (0, 0), (3, 3), 8)
        instance = Instance(open5, (((0, 0), (3, 3)),))
        for _ in range(25):
            cell = next(iter(diagram.layers[0]))
            path = [cell]
            for t in range(diagram.cost):
                cell = rng.choice(diagram.edges[t][cell])
                path.append(cell)
            assert validate(instance, (tuple(path),)) is None
            assert len(path) == diagram.cost + 1
            assert path[0] == (0, 0) and path[-1] == (3, 3)

    def test_monotone_in_cost(self, open5):
        sizes = [
            mdd_size(build_mdd(open5, (0, 0), (4, 4), cost))[0]
            for cost in range(8, 14)
        ]
        assert sizes == sorted(sizes)

    def test_errors(self, open5):
        with pytest.raises(ValueError, match="infeasible cost"):
            build_mdd(open5, (0, 0), (4, 4), 7)
        grid = grid_from_rows([".@."])
        with pytest.raises(ValueError, match="unreachable"):
            build_mdd(grid, (0, 0), (2, 0), 5)

    def test_edges_match_oracle(self):
        cases = oracle_cases(47)
        assert any(grid.n < grid.width * grid.height for grid, *_ in cases)
        for grid, start, goal, d in cases:
            for cost in (d, d + 1, d + 2, d + 5):
                diagram = build_mdd(grid, start, goal, cost)
                oracle = mdd_edge_oracle(grid, start, goal, cost)
                # dict equality leaves key order out, tuple equality keeps
                # successor order: the wait first, then MOVES order
                assert list(diagram.edges) == oracle

    def test_every_successor_branch_matches_oracle(self):
        # a node spans one layer (d_s + d_g = C, last tuple only), two
        # (= C - 1, the closer tuples) or three or more (all neighbours
        # first); d_s + d_g has the parity of d on a bipartite grid, so
        # C = d + 1 gives the two-layer cells and C = d + 2 the others
        grid, start, goal, d = next(
            case for case in random_pairs(67, 40) if case[3] >= 4 and case[0].n >= 30
        )
        from_start, from_goal = dijkstra_field(grid, start), dijkstra_field(grid, goal)
        spans = set()
        for cost in (d + 1, d + 2):
            spans |= {cost - from_start[c] - from_goal[c] for c in from_start}
            diagram = build_mdd(grid, start, goal, cost)
            assert list(diagram.edges) == mdd_edge_oracle(grid, start, goal, cost)
        assert {0, 1, 2} <= spans


def random_pairs(seed, count):
    """Seeded (grid, start, goal, d) draws with the goal reachable at
    distance d, on maps from 1 x 1 to 10 x 10 with 0-60% of cells blocked."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        grid = random_grid(rng, rng.randint(1, 10), rng.randint(1, 10))
        cells = list(grid.cells())
        start, goal = rng.choice(cells), rng.choice(cells)
        d = dijkstra_field(grid, start).get(goal)
        if d is not None:
            out.append((grid, start, goal, d))
    return out


def oracle_cases(seed):
    """Seeded (grid, start, goal, d): the random maps of :func:`random_pairs`,
    each also with start = goal, and 1 x n and n x 1 corridors."""
    out = []
    for grid, start, goal, d in random_pairs(seed, 40):
        out += [(grid, start, goal, d), (grid, goal, goal, 0)]
    rng = random.Random(seed)
    for length in (1, 2, 3, 6, 10):
        for grid in (open_grid(length, 1), open_grid(1, length)):
            start, goal = rng.choice(list(grid.cells())), rng.choice(list(grid.cells()))
            out.append((grid, start, goal, dijkstra_field(grid, start)[goal]))
    return out


class TestMddCounts:
    def test_equals_built_size_on_random_maps(self):
        for grid, start, goal, d in random_pairs(41, 60):
            for cost in (d, d + 1, d + 2, d + 5):
                counts = mdd_counts(grid, start, goal, cost)
                assert counts == mdd_size(build_mdd(grid, start, goal, cost))
                assert counts == mdd_size_oracle(grid, start, goal, cost)
        # every pair of the solver suite's open 3 x 3 and 4 x 4 maps
        for grid in (open_grid(3), open_grid(4)):
            cells = list(grid.cells())
            for start in cells:
                for goal in cells:
                    d = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
                    for cost in range(d, d + 4):
                        expected = mdd_size_oracle(grid, start, goal, cost)
                        assert mdd_counts(grid, start, goal, cost) == expected

    def test_layers_match_oracle_up_to_six_above_shortest(self):
        for grid, start, goal, d in random_pairs(43, 25):
            for cost in range(d, d + 7):
                diagram = build_mdd(grid, start, goal, cost)
                oracle = mdd_layer_oracle(grid, start, goal, cost)
                assert [set(layer) for layer in diagram.layers] == oracle

    def test_widths_match_layer_oracle(self):
        for grid, start, goal, d in oracle_cases(59):
            for cost in (d, d + 1, d + 4):
                oracle = mdd_layer_oracle(grid, start, goal, cost)
                assert mdd_widths(grid, start, goal, cost) == [len(x) for x in oracle]

    def test_open_grid_values(self, open5):
        assert mdd_counts(open5, (2, 2), (2, 2), 0) == (1, 0)
        # layers {c}, ball of radius 1, {c}: 7 nodes; 5 edges out of the
        # center and one back from each of the 5 ball cells
        assert mdd_counts(open5, (2, 2), (2, 2), 2) == (7, 10)

    def test_cells_cut_off_from_the_start_are_not_counted(self):
        grid = grid_from_rows(["...@.", "...@."])
        assert mdd_counts(grid, (0, 0), (2, 1), 9) == mdd_size(
            build_mdd(grid, (0, 0), (2, 1), 9)
        )
        # (4, 0) in layers 0..3 and waits 3 times, (4, 1) in layers 1..2 and
        # waits once, and each moves to the other twice
        assert mdd_counts(grid, (4, 0), (4, 0), 3) == (6, 8)

    @pytest.mark.parametrize(
        "rows, start, goal, cost, match",
        [
            ([".@."], (1, 0), (0, 0), 3, "start"),
            ([".@."], (0, 0), (1, 0), 3, "goal"),
            ([".@."], (0, 0), (5, 0), 3, "goal"),
            ([".@."], (0, 0), (2, 0), 5, "unreachable"),
            (["....."], (0, 0), (4, 0), 3, "infeasible cost"),
        ],
    )
    def test_same_errors_as_build(self, rows, start, goal, cost, match):
        grid = grid_from_rows(rows)
        messages = []
        for fn in (build_mdd, mdd_counts, mdd_widths):
            with pytest.raises(ValueError, match=match) as caught:
                fn(grid, start, goal, cost)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == messages[2]


def two_component_cases(seed, count):
    """Seeded (grid, start, goal, d) on maps that a blocked column splits
    into two sides, each with a passable cell and 0-40% of its cells
    blocked; the goal is reachable at distance d, and half the draws have
    start = goal."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        width, height = rng.randint(3, 10), rng.randint(1, 8)
        wall, blocked = rng.randint(1, width - 2), rng.choice((0.0, 0.2, 0.4))
        rows = [
            "".join(
                "@" if x == wall or rng.random() < blocked else "."
                for x in range(width)
            )
            for _ in range(height)
        ]
        left = "".join(row[:wall] for row in rows)
        right = "".join(row[wall:] for row in rows)
        if "." not in left or "." not in right:
            continue
        grid = grid_from_rows(rows)
        start = rng.choice(list(grid.cells()))
        goal = start if rng.random() < 0.5 else rng.choice(list(grid.cells()))
        d = dijkstra_field(grid, start).get(goal)
        if d is not None:
            out.append((grid, start, goal, d))
    return out


class TestSweep:
    def test_rings_and_counts_match_oracle(self):
        cases = two_component_cases(71, 60)
        assert sum(start == goal for _, start, goal, _ in cases) >= 10
        for grid, start, goal, d in cases:
            from_start = dijkstra_field(grid, start)
            from_goal = dijkstra_field(grid, goal)
            for cost in (d, d + 1, d + 2, d + 6):
                _, rings, nodes, edges = mdd_module._sweep(grid, start, goal, cost)
                expected = {}
                for cell, ds in from_start.items():
                    if ds + from_goal[cell] <= cost:
                        expected.setdefault(ds, set()).add(grid.index(cell))
                assert {t: set(ring) for t, ring in enumerate(rings)} == expected
                assert sum(map(len, rings)) == sum(map(len, expected.values()))
                oracle = mdd_edge_oracle(grid, start, goal, cost)
                # the oracle's dicts cover layers 0 .. C - 1; layer C is the goal
                assert nodes == sum(map(len, oracle)) + 1
                assert edges == sum(len(x) for adj in oracle for x in adj.values())

    def test_errors_and_limit_keep_their_messages(self, monkeypatch):
        grid = grid_from_rows(["..@..", "..@.."])
        cases = [
            ((2, 0), (2, 1), 3, "start (2, 0) is blocked or out of bounds"),
            ((0, 0), (5, 0), 3, "goal (5, 0) is blocked or out of bounds"),
            ((0, 0), (4, 1), 9, "unreachable goal (4, 1) from (0, 0)"),
            ((0, 0), (1, 1), 1, "infeasible cost 1 < shortest distance 2"),
        ]
        for start, goal, cost, message in cases:
            for fn in (mdd_module._sweep, build_mdd, mdd_counts, mdd_widths):
                with pytest.raises(ValueError) as caught:
                    fn(grid, start, goal, cost)
                assert str(caught.value) == message
        # layers {(0, 0)}, {(0, 0), (1, 0), (0, 1)}, {(0, 0)}: 5 + 3 * 5
        monkeypatch.setattr(mdd_module, "_MDD_MAX_NODES", 19)
        for fn in (build_mdd, mdd_widths):
            with pytest.raises(ValueError) as caught:
                fn(grid, (0, 0), (0, 0), 2)
            assert str(caught.value) == (
                "MDD of 5 nodes in 3 layers exceeds the 19-node limit, "
                "which counts each layer as five nodes"
            )
        assert mdd_counts(grid, (0, 0), (0, 0), 2)[0] == 5


class TestNodeLimit:
    def test_huge_cost_is_refused_fast(self):
        grid = open_grid(3)
        start = time.perf_counter()
        for fn in (build_mdd, mdd_widths):
            with pytest.raises(ValueError, match="500000-node limit"):
                fn(grid, (0, 0), (2, 2), 10**9)
        assert time.perf_counter() - start < 0.1

    def test_counts_have_no_limit(self):
        # 9 cells in about 10^9 layers each, counted in O(n)
        nodes, _ = mdd_counts(open_grid(3), (0, 0), (2, 2), 10**9)
        assert nodes > 9 * (10**9 - 4)

    def test_limit_is_exact(self, monkeypatch):
        # the limit counts nodes plus five for each of the C + 1 layers
        cell = open_grid(1)
        # one cell in every layer: C + 1 nodes, 6(C + 1) in all
        assert mdd_widths(cell, (0, 0), (0, 0), 83_332) == [1] * 83_333
        with pytest.raises(ValueError, match="MDD of 83334 nodes in 83334 layers"):
            mdd_widths(cell, (0, 0), (0, 0), 83_333)
        grid = open_grid(5)
        # 7 nodes in 3 layers: 7 + 15
        monkeypatch.setattr(mdd_module, "_MDD_MAX_NODES", 22)
        assert mdd_size(build_mdd(grid, (2, 2), (2, 2), 2))[0] == 7
        monkeypatch.setattr(mdd_module, "_MDD_MAX_NODES", 21)
        with pytest.raises(ValueError, match="MDD of 7 nodes in 3 layers exceeds the 21-node"):
            build_mdd(grid, (2, 2), (2, 2), 2)

    def test_build_at_the_limit(self):
        # corner to corner on an open 100 x 100 map at C = 246: 490,000
        # nodes in 247 layers, 491,235 of the 500,000 the limit allows
        args = (open_grid(100), (0, 0), (99, 99), 246)
        diagram = build_mdd(*args)
        assert mdd_size(diagram) == mdd_counts(*args)
        assert mdd_size(diagram)[0] == 490_000
        assert [len(layer) for layer in diagram.layers] == mdd_widths(*args)


class TestSizeBounds:
    def test_layer_bound_values(self):
        assert layer_bound(0) == 0
        assert layer_bound(1) == 4
        assert layer_bound(3) == 24
        with pytest.raises(ValueError):
            layer_bound(-1)

    def test_analytic_even_values(self):
        assert analytic_size_bound(2) == 8
        assert analytic_size_bound(4) == 32
        # the single start = goal cell; the cubic formula alone gives 0
        assert analytic_size_bound(0) == 1

    def test_analytic_matches_layer_sum(self):
        # the closed form is exactly twice the summed per-layer bounds; at
        # C = 0 that sum is empty and the bound is the start cell alone
        for cost in range(0, 21, 2):
            total = 2 * sum(layer_bound(t) for t in range(1, cost // 2 + 1))
            assert analytic_size_bound(cost) == max(total, 1)

    def test_analytic_odd_adds_middle_layer(self):
        # C = 1 adds the middle layer to the even formula at 0, which is 0
        assert analytic_size_bound(1) == layer_bound(1)
        for cost in (3, 5, 9):
            mid = (cost + 1) // 2
            expected = analytic_size_bound(cost - 1) + layer_bound(mid)
            assert analytic_size_bound(cost) == expected

    def test_exact_within_center_undercount(self):
        # start = goal on a big open grid: the formula misses only the center
        # cell of each counted layer
        for cost in (2, 4, 6, 8):
            grid = open_grid(2 * cost + 1)
            center = (cost, cost)
            exact = mdd_size(build_mdd(grid, center, center, cost))[0]
            assert exact <= analytic_size_bound(cost) + (cost // 2 + 1)

    def test_analytic_covers_start_equals_goal(self):
        grid = open_grid(25)
        for cost in range(0, 13):
            exact = mdd_size(build_mdd(grid, (12, 12), (12, 12), cost))[0]
            assert exact <= analytic_size_bound(cost), cost

    def test_radius_bound_values(self):
        # a radius-0 map is one cell, which each of the C + 1 layers holds
        assert radius_size_bound(0, 0, 1) == 1
        assert radius_size_bound(0, 5, 1) == 6
        assert radius_size_bound(7, 0, 1) == 672
        assert radius_size_bound(7, 0, 1) < 2 * 7**3
        assert radius_size_bound(10, 3, 441) == 1760 + 1323

    def test_radius_bound_is_the_rounded_up_rational(self):
        def ceiling(r, delta, n):
            return math.ceil(Fraction(4, 3) * r * (r + 1) * (r + 2) + delta * n)

        for r in range(1, 301):
            for delta in (0, 1, 2, 7):
                for n in (1, 2, 441, 10**6 + 3):
                    assert radius_size_bound(r, delta, n) == ceiling(r, delta, n)
        for delta, n in ((0, 1), (5, 10**40 + 1)):
            assert radius_size_bound(10**30, delta, n) == ceiling(10**30, delta, n)
        # r = 0 adds the layer that the formula leaves out
        for delta in (0, 1, 2, 7):
            for n in (1, 2, 441):
                assert radius_size_bound(0, delta, n) == ceiling(0, delta, n) + n

    def test_radius_bound_covers_random_maps(self):
        # every start with two goals on connected random maps, C from 2r
        # to 2r + 2
        rng = random.Random(61)
        checked = single = 0
        while checked < 50:
            grid = random_grid(rng, rng.randint(1, 5), rng.randint(1, 5))
            found = brute_force_radius(grid)
            if found is None:
                continue
            r = found[0]
            cells = sorted(dijkstra_field(grid, found[1]))
            for start in cells:
                for goal in rng.sample(cells, min(2, len(cells))):
                    for cost in range(2 * r, 2 * r + 3):
                        nodes, _ = mdd_size_oracle(grid, start, goal, cost)
                        bound = radius_size_bound(r, cost - 2 * r, grid.n)
                        assert nodes <= bound, (found, start, goal, cost)
            checked += 1
            single += r == 0
        assert single > 0

    def test_edge_budget(self, open5):
        diagram = build_mdd(open5, (0, 0), (4, 4), 10)
        m, e = mdd_size(diagram)
        assert e <= 5 * m
        assert m + e <= 6 * m

    def test_with_edges_bound(self):
        assert with_edges_bound(4) == 6 * 32

    def test_singleton_constraint_space(self, open5):
        diagram = build_mdd(open5, (1, 1), (1, 1), 0)
        assert mdd_size(diagram)[0] == 1
