"""Seeded input generator: grid maps and scenarios in the community text formats.

Everything here is pure Python and independent of ``cbsbounds``: connectivity
and distances come from the benchmark's own BFS, so a change to the library's
``distance_field`` cannot change the generated inputs. The same seed always
gives the same texts.
"""

from __future__ import annotations

import random
from collections import deque

MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Grid:
    """A passable-cell mask on a w x h grid, with the BFS the checks use."""

    def __init__(self, width: int, height: int, passable: list[list[bool]]):
        self.width = width
        self.height = height
        self.passable = passable
        self.cells = [
            (x, y) for y in range(height) for x in range(width) if passable[y][x]
        ]

    @property
    def n(self) -> int:
        return len(self.cells)

    def is_passable(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height and self.passable[y][x]

    def neighbors(self, cell):
        x, y = cell
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if self.is_passable(nxt):
                yield nxt

    def bfs(self, source) -> dict:
        """Distances from ``source`` to every reachable cell."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            cell = queue.popleft()
            d = dist[cell] + 1
            for nxt in self.neighbors(cell):
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
        return dist

    def map_text(self) -> str:
        rows = [
            "".join("." if self.passable[y][x] else "@" for x in range(self.width))
            for y in range(self.height)
        ]
        head = ["type octile", f"height {self.height}", f"width {self.width}", "map"]
        return "\n".join(head + rows) + "\n"


def random_grid(rng: random.Random, width: int, height: int, density: float) -> Grid:
    """A connected grid with exactly round(density * w * h) blocked cells.

    Obstacles are drawn one cell at a time from the seed stream. A draw that
    would leave a neighbouring passable cell with no passable neighbour is
    rejected, and a finished layout whose passable cells still do not form one
    component is rejected as a whole and redrawn. Rejecting single cells first
    keeps whole-layout redraws rare, so generation time hardly depends on the
    seed.
    """
    blocked_count = round(density * width * height)
    cells = [(x, y) for y in range(height) for x in range(width)]
    while True:
        passable = [[True] * width for _ in range(height)]
        probe = Grid(width, height, passable)  # its neighbours follow the mask as it changes
        placed = 0
        for x, y in rng.sample(cells, len(cells)):
            if placed == blocked_count:
                break
            passable[y][x] = False
            if any(next(probe.neighbors(nb), None) is None for nb in probe.neighbors((x, y))):
                passable[y][x] = True  # it would cut off a neighbour
                continue
            placed += 1
        grid = Grid(width, height, passable)
        if placed == blocked_count and len(grid.bfs(grid.cells[0])) == grid.n:
            return grid


def scen_text(grid: Grid, map_name: str, agents) -> str:
    """A ``version 1`` scenario; the optimal-length column is the BFS distance."""
    lines = ["version 1"]
    for start, goal in agents:
        d = grid.bfs(start)[goal]
        lines.append(
            f"0\t{map_name}\t{grid.width}\t{grid.height}\t"
            f"{start[0]}\t{start[1]}\t{goal[0]}\t{goal[1]}\t{d}"
        )
    return "\n".join(lines) + "\n"


def random_agents(rng: random.Random, grid: Grid, k: int, min_dist: int, max_dist: int,
                  taken=()):
    """k agents with distinct starts, distinct goals, and start-goal distances
    in [min_dist, max_dist]; no cell in ``taken`` and no start equal to a
    goal. Draws outside the band are rejected."""
    used = set(taken)
    agents = []
    while len(agents) < k:
        start = rng.choice(grid.cells)
        if start in used:
            continue
        dist = grid.bfs(start)
        band = sorted(c for c, d in dist.items() if min_dist <= d <= max_dist and c not in used)
        if not band:
            continue
        goal = rng.choice(band)
        used.update((start, goal))
        agents.append((start, goal))
    return agents


def lead_agents(rng: random.Random, grid: Grid, k: int, lead_band, other_band):
    """A lead agent whose distance lies in ``lead_band``, then k - 1 agents in
    ``other_band``, so that the lead agent sets the makespan and every other
    agent has slack of at least min(lead_band) - max(other_band) steps."""
    lead = random_agents(rng, grid, 1, *lead_band)
    return lead + random_agents(rng, grid, k - 1, *other_band, taken=lead[0])
