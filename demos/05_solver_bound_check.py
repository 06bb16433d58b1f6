#!/usr/bin/env python3
"""Running the reference solver and checking its tree against the bounds.

Solves a pocket-corridor swap (two agents must trade ends of a corridor with
one passing place) and a contended open-grid instance, under both splitting
strategies, then verifies the measured conflict-tree sizes sit below the
MDD-exponential, recurrence, and generating-function budgets.
"""

import numpy as np

from cbsbounds import (
    GridMap,
    Instance,
    empirical_bound_check,
    solve,
    validate,
)


def pocket_corridor() -> Instance:
    rows = [
        ".....",
        "@@.@@",
    ]
    mask = np.array([[ch == "." for ch in row] for row in rows], dtype=bool)
    grid = GridMap(5, 2, mask)
    return Instance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))


def contended_square() -> Instance:
    grid = GridMap(4, 4, np.ones((4, 4), dtype=bool))
    return Instance(grid, (((0, 0), (3, 3)), ((3, 0), (0, 3)), ((0, 3), (3, 0))))


def run(name: str, instance: Instance) -> None:
    print(f"=== {name} (k={instance.k}, n={instance.map.n}) ===")
    for splitting in ("classic", "disjoint"):
        paths, stats = solve(instance, splitting)
        assert validate(instance, paths) is None
        margins = empirical_bound_check(instance, stats)
        print(
            f"{splitting:>9}: cost={stats.optimal_cost} "
            f"generated={stats.generated} expanded={stats.expanded} "
            f"depth={stats.max_depth} neg={stats.negative_applied} "
            f"pos={stats.positive_applied}"
        )
        for bound, margin in margins.items():
            print(f"           margin[{bound}] = {margin:.2f} (log2)")
    for i, path in enumerate(paths):
        print(f"  agent {i}: " + "->".join(f"({x},{y})" for x, y in path))
    print()


def main() -> None:
    run("pocket corridor swap", pocket_corridor())
    run("three agents crossing a 4x4", contended_square())


if __name__ == "__main__":
    main()
