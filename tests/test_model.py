from __future__ import annotations

import random

import numpy as np
import pytest

from cbsbounds import (
    GridMap,
    Instance,
    ParseError,
    parse_map,
    parse_scen,
    path_cost,
    radius,
    read_scen_entries,
    serialize_map,
    validate,
)
from cbsbounds import model
from conftest import grid_from_rows, open_grid, random_grid
from oracles import MOVES, brute_force_radius, dijkstra_distance, dijkstra_field


def bfs(grid, a, b) -> int:
    """BFS distance from a to b, -1 where b is unreachable."""
    return model._bfs(grid, a)[grid.index(b)]


def map_text(rows: list[str]) -> str:
    return "\n".join(
        ["type octile", f"height {len(rows)}", f"width {len(rows[0])}", "map"] + rows
    )


def make_warehouse_text(height=161, width=63) -> str:
    """Deterministic warehouse-style map: shelf blocks separated by aisles."""
    rows = []
    for y in range(height):
        if y % 4 == 0 or y < 2 or y >= height - 2:
            rows.append("." * width)
        else:
            row = []
            for x in range(width):
                inside = 3 <= x < width - 3 and (x - 3) % 7 < 5
                row.append("@" if inside else ".")
            rows.append("".join(row))
    return map_text(rows)


class TestParseMap:
    def test_all_open_3x3(self):
        grid = parse_map(map_text(["...", "...", "..."]))
        assert (grid.width, grid.height, grid.n) == (3, 3, 9)

    def test_forced_count_2x2(self):
        grid = parse_map(map_text([".@", "@."]))
        assert grid.n == 2
        assert grid.is_passable((0, 0)) and grid.is_passable((1, 1))
        assert not grid.is_passable((1, 0))

    def test_g_passable_and_all_blockers(self):
        grid = parse_map(map_text([".G@", "OTW"]))
        assert grid.n == 2

    def test_warehouse_scale_recount(self):
        text = make_warehouse_text()
        grid = parse_map(text)
        assert (grid.height, grid.width) == (161, 63)
        # independent textual recount of passable symbols
        body = text.splitlines()[4:]
        expected = sum(row.count(".") + row.count("G") for row in body)
        assert grid.n == expected
        assert grid.passable.size == 161 * 63

    @pytest.mark.parametrize(
        "lines, fragment",
        [
            (["height 2", "width 2", "map", "..", ".."], "line 1"),
            (["type octile", "height x", "width 2", "map", ".."], "line 2"),
            (["type octile", "height 1", "width 3", "map", ".."], "line 5"),
            (["type octile", "height 1", "width 2", "map", ".z"], "line 5"),
            (["type octile", "height 2", "width 2", "map", ".."], "line 6"),
            (
                ["type octile", "height 1000000", "width 1000000", "map", ".."],
                "line 5: row length 2 does not match width 1000000",
            ),
        ],
    )
    def test_errors_name_line(self, lines, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_map("\n".join(lines))

    def test_roundtrip_mask_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                "".join(rng.choice(".@") for _ in range(6)) for _ in range(4)
            ]
            if all(ch == "@" for row in rows for ch in row):
                continue
            grid = parse_map(map_text(rows))
            again = parse_map(serialize_map(grid))
            assert np.array_equal(grid.passable, again.passable)


SCEN_HEAD = "version 1"


def scen_text(rows: list[tuple]) -> str:
    lines = [SCEN_HEAD]
    for bucket, name, w, h, sx, sy, gx, gy, opt in rows:
        lines.append(f"{bucket}\t{name}\t{w}\t{h}\t{sx}\t{sy}\t{gx}\t{gy}\t{opt}")
    return "\n".join(lines)


class TestParseScen:
    def test_single_row(self):
        grid = open_grid(4)
        inst = parse_scen(scen_text([(0, "m", 4, 4, 0, 0, 3, 3, 6)]), 1, grid)
        assert inst.k == 1
        assert inst.agents[0] == ((0, 0), (3, 3))

    def test_zero_agents_rejected(self):
        grid = open_grid(3)
        with pytest.raises(ParseError, match="at least one agent"):
            parse_scen(scen_text([(0, "m", 3, 3, 0, 0, 2, 2, 4)]), 0, grid)

    def test_version_mismatch(self):
        with pytest.raises(ParseError, match="version"):
            read_scen_entries("version 2\n0\tm\t3\t3\t0\t0\t1\t1\t2")

    def test_blocked_or_out_of_bounds(self):
        grid = grid_from_rows([".@.", "..."])
        bad_cell = scen_text([(0, "m", 3, 2, 1, 0, 2, 1, 2)])
        with pytest.raises(ParseError, match="blocked"):
            parse_scen(bad_cell, 1, grid)
        oob = scen_text([(0, "m", 3, 2, 0, 0, 5, 5, 2)])
        with pytest.raises(ParseError, match="out of bounds"):
            parse_scen(oob, 1, grid)

    def test_declared_length_matches_bfs(self):
        grid = grid_from_rows(
            [
                ".....",
                ".@@@.",
                ".....",
            ]
        )
        start, goal = (0, 0), (4, 0)
        oracle = dijkstra_distance(grid, start, goal)
        text = scen_text([(0, "m", 5, 3, *start, *goal, oracle)])
        entries = read_scen_entries(text)
        assert entries[0].optimal_length == bfs(grid, start, goal)


def assert_field_matches_dijkstra(grid, source):
    """``model._bfs`` from source at every cell, as rows of distances, checked
    against Dijkstra (-1 where unreachable or blocked)."""
    dist, expected = model._bfs(grid, source), dijkstra_field(grid, source)
    rows = [[(x, y) for x in range(grid.width)] for y in range(grid.height)]
    field = [[dist[grid.index(cell)] for cell in row] for row in rows]
    assert field == [[expected.get(cell, -1) for cell in row] for row in rows]
    return field


class TestLayout:
    def test_callers_mask_stays_writable(self):
        mask = np.ones((2, 2), dtype=bool)
        grid = GridMap(2, 2, mask)
        mask[0, 0] = False
        assert grid.n == 4 and grid.is_passable((0, 0))

    def test_view_of_a_writable_base_is_copied(self):
        base = np.ones((2, 3), dtype=bool)
        grid = GridMap(2, 2, base[:, :2])
        grid.steps  # fills the cache before the write
        base[0, 0] = False
        assert grid.n == 4 and grid.is_passable((0, 0))

    def test_nested_list_mask_matches_array(self):
        rng = random.Random(43)
        for width, height in [(1, 1), (1, 6), (6, 1), (4, 3), (7, 9)]:
            rows = [[rng.random() >= 0.3 for _ in range(width)] for _ in range(height)]
            rows[0][0] = True
            array = GridMap(width, height, np.array(rows, dtype=bool))
            nested = GridMap(width, height, rows)
            for row in rows:  # before any cached view of the mask is built
                row[:] = [not free for free in row]
            rows.append([True] * width)
            assert nested.n == array.n
            assert nested.steps == array.steps
            assert list(nested.cells()) == list(array.cells())
            assert serialize_map(nested) == serialize_map(array)
            assert np.array_equal(nested.passable, array.passable)
            assert nested.passable.dtype == bool and not nested.passable.flags.writeable

    def test_steps_are_the_four_neighbours(self):
        rng = random.Random(37)
        shapes = [(1, 1), (1, 7), (7, 1), (5, 3), (3, 5), (1, 6), (6, 1)]
        shapes += [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(40)]
        for width, height in shapes:
            grid = random_grid(rng, width, height)
            every = [(x, y) for x in range(width) for y in range(height)]
            passable = {(x, y) for x, y in every if grid.passable[y, x]}
            ids = [grid.index(cell) for cell in every]
            assert len(set(ids)) == len(ids)
            assert ids == sorted(ids)  # ids sort like (x, y) tuples
            for cell, u in zip(every, ids):
                assert grid.cell(u) == cell
                if cell not in passable:
                    assert grid.steps[u] == ()
                    continue
                x, y = cell
                around = [(x + dx, y + dy) for dx, dy in MOVES]
                expected = [cell] + [c for c in around if c in passable]
                assert [grid.cell(v) for v in grid.steps[u]] == expected
            # no id outside the map carries a step
            assert sum(1 for s in grid.steps if s) == len(passable)


class TestDistances:
    def test_field_matches_dijkstra_on_random_maps(self):
        rng = random.Random(29)
        shapes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1), (5, 3), (1, 6)]
        shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(80)]
        cut_off = 0
        for width, height in shapes:
            grid = random_grid(rng, width, height)
            cells = list(grid.cells())
            for source in rng.sample(cells, min(3, len(cells))):
                field = assert_field_matches_dijkstra(grid, source)
                cut_off += sum(field[y][x] < 0 for x, y in grid.cells())
        assert cut_off > 0  # some draws were disconnected

    def test_field_on_edge_shapes(self):
        single = grid_from_rows(["@@@", "@.@", "@@@"])
        field = assert_field_matches_dijkstra(single, (1, 1))
        assert field == [[-1, -1, -1], [-1, 0, -1], [-1, -1, -1]]
        assert assert_field_matches_dijkstra(open_grid(1), (0, 0)) == [[0]]
        row = grid_from_rows(["..@..."])
        assert assert_field_matches_dijkstra(row, (4, 0)) == [[-1, -1, -1, 1, 0, 1]]
        column = grid_from_rows([".", ".", "@", "."])
        assert assert_field_matches_dijkstra(column, (0, 0)) == [[0], [1], [-1], [-1]]

    def test_zero_distance(self, open5):
        assert bfs(open5, (2, 2), (2, 2)) == 0

    def test_manhattan_on_open_grid(self, open5):
        assert bfs(open5, (0, 0), (4, 4)) == 8

    def test_corridor_matches_dijkstra(self):
        grid = grid_from_rows(
            [
                "......",
                "@@@@.@",
                "......",
                ".@@@@@",
                "......",
            ]
        )
        cells = list(grid.cells())
        rng = random.Random(11)
        for _ in range(40):
            a, b = rng.choice(cells), rng.choice(cells)
            assert bfs(grid, a, b) == dijkstra_distance(grid, a, b)

    def test_symmetry(self):
        grid = grid_from_rows([".@..", "....", "..@."])
        cells = list(grid.cells())
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.choice(cells), rng.choice(cells)
            assert bfs(grid, a, b) == bfs(grid, b, a)

    def test_unreachable_is_none(self):
        grid = grid_from_rows([".@."])
        assert bfs(grid, (0, 0), (2, 0)) == -1

    def test_triangle_inequality_sampled(self):
        rng = random.Random(19)
        for _ in range(5):
            rows = [
                "".join("." if rng.random() > 0.25 else "@" for _ in range(8))
                for _ in range(8)
            ]
            rows[0] = "." * 8  # keep at least one open row
            grid = grid_from_rows(rows)
            cells = list(grid.cells())
            field_cache = {}

            def dist(a, b):
                if a not in field_cache:
                    field_cache[a] = model._bfs(grid, a)
                d = field_cache[a][grid.index(b)]
                return None if d < 0 else d

            for _ in range(60):
                u, v, w = (rng.choice(cells) for _ in range(3))
                duw, duv, dvw = dist(u, w), dist(u, v), dist(v, w)
                if duw is None or duv is None or dvw is None:
                    continue
                assert duw <= duv + dvw


class TestRadius:
    def test_single_cell(self):
        assert radius(open_grid(1)) == (0, (0, 0))

    def test_open_5x5(self, open5):
        assert radius(open5) == (4, (2, 2))

    def test_open_7x7(self):
        r, _ = radius(open_grid(7))
        assert r == 6

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            radius(grid_from_rows([".@."]))

    def test_matches_brute_force_on_random_maps(self):
        rng = random.Random(23)
        shapes = [(1, 1), (1, 9), (9, 1), (2, 7), (7, 2), (7, 6), (5, 9), (10, 3)]
        connected = disconnected = 0
        for w, h in shapes * 8:
            grid = random_grid(rng, w, h)
            expected = brute_force_radius(grid)
            if expected is None:
                disconnected += 1
                with pytest.raises(ValueError, match="disconnected"):
                    radius(grid)
            else:
                connected += 1
                assert radius(grid) == expected, (w, h)
        assert connected >= 30 and disconnected >= 10

    def test_bitsets_span_words_and_blocks(self, monkeypatch):
        rng = random.Random(29)
        # open 1 x 128 ties cells 63 and 64, which fall in different blocks
        grids = [open_grid(9, 8), open_grid(13, 11), open_grid(1, 128)]
        whole = [brute_force_radius(g) for g in grids]
        while len(grids) < 8:
            grid = random_grid(rng, rng.randint(9, 13), rng.randint(9, 13))
            expected = brute_force_radius(grid) if grid.n > 64 else None
            if expected is not None:
                grids.append(grid)
                whole.append(expected)
        assert sum(g.n > 128 for g in grids) >= 2
        assert [radius(g) for g in grids] == whole

        blocks = []
        block_radius = model._block_radius

        def spy(passable, ys, xs, *steps):
            blocks.append(len(ys))
            return block_radius(passable, ys, xs, *steps)

        monkeypatch.setattr(model, "_RADIUS_BLOCK_WORDS", 1)
        monkeypatch.setattr(model, "_block_radius", spy)
        for grid, got in zip(grids, whole):
            blocks.clear()
            assert radius(grid) == got
            assert blocks == [64] * (grid.n // 64) + [grid.n % 64] * (grid.n % 64 > 0)


class TestInstanceAndPaths:
    def test_instance_validations(self, open5):
        with pytest.raises(ValueError, match="start cells"):
            Instance(open5, (((0, 0), (1, 1)), ((0, 0), (2, 2))))
        with pytest.raises(ValueError, match="goal cells"):
            Instance(open5, (((0, 0), (1, 1)), ((1, 0), (1, 1))))
        with pytest.raises(ValueError, match="at least one agent"):
            Instance(open5, ())

    @pytest.mark.parametrize(
        "start, goal, match",
        [
            ((1, 0), (0, 0), r"start \(1, 0\) is blocked"),
            ((3, 0), (0, 0), r"start \(3, 0\) is blocked or out of bounds"),
            ((0, 0), (1, 0), r"goal \(1, 0\) is blocked"),
            ((0, 0), (0, -1), r"goal \(0, -1\) is blocked or out of bounds"),
        ],
        ids=["start-blocked", "start-off-map", "goal-blocked", "goal-off-map"],
    )
    def test_blocked_or_out_of_bounds_end_raises(self, start, goal, match):
        with pytest.raises(ValueError, match=match):
            Instance(grid_from_rows([".@."]), ((start, goal),))

    def test_path_helpers(self, open5):
        path = ((0, 0), (1, 0), (1, 0), (1, 1))
        assert path_cost(path) == 3
        assert validate(Instance(open5, (((0, 0), (1, 1)),)), (path,)) is None
        jump = ((0, 0), (2, 0))
        assert validate(Instance(open5, (jump,)), (jump,)).kind == "illegal-move"
