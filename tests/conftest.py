from __future__ import annotations

import numpy as np
import pytest

from cbsbounds import GridMap, Instance


def open_grid(width: int, height: int | None = None) -> GridMap:
    height = width if height is None else height
    return GridMap(width, height, np.ones((height, width), dtype=bool))


def grid_from_rows(rows: list[str]) -> GridMap:
    """Build a map straight from '.'/'@' rows, bypassing the parser."""
    height = len(rows)
    width = len(rows[0])
    mask = np.array([[ch == "." for ch in row] for row in rows], dtype=bool)
    return GridMap(width, height, mask)


def random_grid(rng, width: int, height: int) -> GridMap:
    """A seeded random map with 0-60% of its cells blocked; at least one
    cell stays passable, and the denser draws are often disconnected."""
    blocked = rng.choice((0.0, 0.2, 0.4, 0.6))
    while True:
        mask = np.array(
            [[rng.random() >= blocked for _ in range(width)] for _ in range(height)],
            dtype=bool,
        )
        if mask.any():
            return GridMap(width, height, mask)


@pytest.fixture
def open5() -> GridMap:
    return open_grid(5)


@pytest.fixture
def pocket_corridor() -> Instance:
    """A corridor with a single side pocket; the two agents must swap ends.

    The optimal plan parks one agent in the pocket while the other passes.
    """
    grid = grid_from_rows(
        [
            ".....",
            "@@.@@",
        ]
    )
    return Instance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))
