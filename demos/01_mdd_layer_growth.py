#!/usr/bin/env python3
"""How big can a single agent's MDD get?

Builds exact MDDs for an agent parked at the center of an open grid (the
worst case for reachability) and compares per-layer sizes against the
quadratic layer bound, and totals against the cubic closed form and the
radius-refined bound.
"""

import numpy as np

from cbsbounds import (
    GridMap,
    analytic_size_bound,
    build_mdd,
    layer_bound,
    mdd_size,
    radius,
    radius_size_bound,
)


def open_grid(side: int) -> GridMap:
    return GridMap(side, side, np.ones((side, side), dtype=bool))


def main() -> None:
    cost = 8
    grid = open_grid(2 * cost + 1)
    center = (cost, cost)
    diagram = build_mdd(grid, center, center, cost)

    print(f"open {grid.width}x{grid.height} grid, start = goal = center, C = {cost}")
    print(f"{'t':>3} {'exact':>7} {'2t(t+1)':>8}")
    for t, layer in enumerate(diagram.layers):
        print(f"{t:>3} {len(layer):>7} {layer_bound(min(t, cost - t)):>8}")

    m, e = mdd_size(diagram)
    bound = analytic_size_bound(cost)
    print(f"\ntotal nodes M = {m}, edges E = {e} (E <= 5M = {5 * m})")
    print(f"cubic bound (C^3+6C^2+8C)/6 = {bound}")
    print(
        "each counted layer misses only the center cell, so "
        f"M <= bound + {cost // 2 + 1} holds: {m <= bound + cost // 2 + 1}"
    )

    r, center_cell = radius(grid)
    print(f"\ngrid radius = {r} (center {center_cell})")
    for delta in (0, 2, 5):
        rb = radius_size_bound(r, delta, grid.n)
        print(f"radius bound at C = 2r+{delta}: {rb}")


if __name__ == "__main__":
    main()
