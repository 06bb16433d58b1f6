"""Output checks that share no code with ``cbsbounds``.

Each ``check_*`` function raises :class:`CheckError` with a one-line reason
when an output is wrong. The reference values come from closed forms and from
the benchmark's own BFS (``gen.Grid.bfs``), never from the library.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9  # log-space values against exact ground truth
PRINT_TOL = 5e-7  # half a unit in the sixth decimal the CLI prints
LOG2_E = math.log2(math.e)


class CheckError(AssertionError):
    """An output disagrees with the benchmark's reference."""


def _close(value: float, ref: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= abs_tol + REL_TOL * max(1.0, abs(ref))


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# --- recurrence --------------------------------------------------------------

def _hockey_terms(r: int, s: int):
    """(n, k) pairs of the binomials C(n, k) whose sum is T(r, s), r, s >= 1.

    Expanding 1 / (1 - x - x^2 y) as a geometric series in (x + x^2 y) and
    summing the numerator shifts with the hockey-stick identity gives
    T(r, s) = sum_{b<=s} C(r-b, b) + sum_{b<s} [C(r-1-b, b) + C(r-b, b+1)].
    Terms with k > n vanish and are left out.
    """
    for b in range(s + 1):
        yield r - b, b
    for b in range(s):
        yield r - 1 - b, b
        yield r - b, b + 1


def recurrence_exact(r: int, s: int) -> int:
    if r == 0 or s == 0:
        return 1
    return sum(math.comb(n, k) for n, k in _hockey_terms(r, s) if 0 <= k <= n)


def recurrence_log2(r: int, s: int) -> float:
    """log2 T(r, s) from lgamma terms combined by one log-sum-exp."""
    if r == 0 or s == 0:
        return 0.0
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        for n, k in _hockey_terms(r, s)
        if 0 <= k <= n
    ]
    top = max(logs)
    return (top + math.log(sum(math.exp(v - top) for v in logs))) * LOG2_E


def check_recurrence_log(r: int, s: int, value: float, abs_tol: float = 0.0) -> None:
    ref = recurrence_log2(r, s)
    _expect(
        _close(value, ref, abs_tol),
        f"log2 T({r},{s}) = {value!r}, reference {ref!r}",
    )


def check_recurrence_exact(r: int, s: int, value: int) -> None:
    _expect(value == recurrence_exact(r, s), f"exact T({r},{s}) differs from the closed form")


# --- bounds ------------------------------------------------------------------

EDGE_BASE = {"none": lambda n: n, "grid": lambda n: 9 * n}  # constraints per (agent, step)


def bound_refs(n: int, k: int, c: int, edge_mode: str = "none") -> dict:
    base = EDGE_BASE[edge_mode](n)
    kc = k * c
    org = float(base * kc)
    gf = kc * math.log2(math.e * base)
    ind = math.log2(3.0) + kc * math.log2(k * n * c)
    return {
        "org_log2": org,
        "rec_ind_log2": ind,
        "rec_gf_log2": gf,
        "ratio_log2": org - gf,
        "org_exp10": math.ceil(math.log10(org)),
        "rec_ind_exp10": math.ceil(math.log10(ind)),
        "rec_gf_exp10": math.ceil(math.log10(gf)),
    }


def check_bounds(d: dict, n: int, k: int, c: int, edge_mode: str, abs_tol: float = 0.0) -> None:
    """org = base*k*C, rec_gf = kC log2(e*base), rec_ind = log2 3 + kC log2(k n C),
    and the ordering org > rec_ind > rec_gf."""
    for key, ref in bound_refs(n, k, c, edge_mode).items():
        got = d[key]
        if key.endswith("_exp10"):
            _expect(int(got) == ref, f"{key} = {got}, reference {ref} (n={n} k={k} C={c})")
        else:
            _expect(
                _close(float(got), ref, abs_tol),
                f"{key} = {got}, reference {ref!r} (n={n} k={k} C={c} {edge_mode})",
            )
    org, ind, gf = (float(d[key]) for key in ("org_log2", "rec_ind_log2", "rec_gf_log2"))
    _expect(org > ind > gf, f"ordering org > rec_ind > rec_gf fails for n={n} k={k} C={c}")


# --- generating function -------------------------------------------------------

def smooth_point(r: int, s: int) -> tuple[float, float]:
    """The critical point on the branch 1 - x - x^2 y = 0 of H.

    On that branch H_x = (1-x)(1-y)(-1-2xy) and H_y = -(1-x)(1-y) x^2, so
    s x H_x = r y H_y away from y = 1 reduces to s (1 + 2xy) = r x y; with
    x y = (1 - x) / x this is linear in x.
    """
    x = (r - 2 * s) / (r - s)
    return x, (1.0 - x) / (x * x)


def check_critical_points(lines: list[str], r: int, s: int) -> None:
    """CLI ``genfunc --r --s`` lines: q1 at the golden point, q2 at (1, 1),
    and q3 (present iff r > 2s > 0) on the smooth branch."""
    refs = {"q1": ((math.sqrt(5.0) - 1.0) / 2.0, 1.0), "q2": (1.0, 1.0)}
    if r > 2 * s > 0:
        refs["q3"] = smooth_point(r, s)
    got = {}
    for line in lines:
        label, _kind, xs, ys, ls = line.split()
        got[label] = (float(xs[2:]), float(ys[2:]), float(ls[5:]))
        _expect(math.isfinite(got[label][2]), f"{label} contribution is not finite")
    _expect(sorted(got) == sorted(refs), f"critical points {sorted(got)}, expected {sorted(refs)}")
    for label, (x, y) in refs.items():
        gx, gy, _ = got[label]
        _expect(
            abs(gx - x) <= 2e-6 and abs(gy - y) <= 2e-6 * max(1.0, y),
            f"{label} at ({gx}, {gy}), reference ({x:.6f}, {y:.6f})",
        )


def check_linear(value: float, n: int, s: int, rel: float) -> None:
    """The linear-profile asymptotic against the exact log2 T(n s, s)."""
    ref = recurrence_log2(n * s, s)
    _expect(
        abs(value - ref) <= rel * ref,
        f"approx_linear({n},{s}) = {value}, log2 T = {ref:.6f}",
    )


# --- graph layer ---------------------------------------------------------------

def mdd_counts(grid, start, goal, cost: int):
    """(nodes, edges, per-layer sizes) of the MDD from the two BFS fields.

    A cell v is in layer t iff d_s(v) <= t and d_g(v) <= C - t, so it lies in
    max(0, C + 1 - d_s - d_g) layers; a move u -> v (v = u for a wait) is an
    edge at every t with u in layer t and v in layer t + 1.
    """
    ds, dg = grid.bfs(start), grid.bfs(goal)
    layers = [0] * (cost + 1)
    nodes = edges = 0
    for u in grid.cells:
        if u not in ds or u not in dg:
            continue
        lo, hi = ds[u], cost - dg[u]
        if lo > hi:
            continue
        nodes += hi - lo + 1
        for t in range(lo, hi + 1):
            layers[t] += 1
        for v in (u, *grid.neighbors(u)):
            e_lo = max(lo, ds[v] - 1)
            e_hi = min(hi, cost - 1 - dg[v])
            if e_hi >= e_lo:
                edges += e_hi - e_lo + 1
    return nodes, edges, layers


def check_mdd_size(got: tuple, ref: tuple, what: str) -> None:
    _expect(tuple(got) == tuple(ref[:2]), f"{what}: (nodes, edges) = {tuple(got)}, reference {ref[:2]}")


def check_mdd_layers(rows: list[list[str]], ref_layers: list[int], cost: int) -> None:
    """CLI ``mdd`` CSV: one row per layer with the exact size and 2m(m+1)."""
    _expect(rows and rows[0] == ["t", "exact", "eq1_bound"], "mdd CSV header")
    body = rows[1:]
    _expect(len(body) == cost + 1, f"mdd CSV has {len(body)} layers, expected {cost + 1}")
    for t, row in enumerate(body):
        m = min(t, cost - t)
        want = [str(t), str(ref_layers[t]), str(2 * m * (m + 1))]
        _expect(row == want, f"mdd layer {t}: {row}, reference {want}")


def eccentricity(grid, cell) -> int:
    return max(grid.bfs(cell).values())


def check_radius(grid, result, probes, open_grid: bool) -> None:
    """The center's eccentricity equals the radius; no probe cell beats it;
    an open w x h grid has radius floor(w/2) + floor(h/2)."""
    rad, center = result
    _expect(grid.is_passable(center), f"center {center} is not a passable cell")
    ecc = eccentricity(grid, tuple(center))
    _expect(ecc == rad, f"center {center} has eccentricity {ecc}, reported radius {rad}")
    for cell in probes:
        _expect(rad <= eccentricity(grid, cell), f"cell {cell} beats the radius {rad}")
    if open_grid:
        want = grid.width // 2 + grid.height // 2
        _expect(rad == want, f"open-grid radius {rad}, closed form {want}")


# --- solver ----------------------------------------------------------------------

def distance_lower_bound(grid, agents) -> int:
    """The largest start-goal distance: no makespan can be smaller."""
    return max(grid.bfs(s)[g] for s, g in agents)


def check_paths(grid, agents, paths, cost: int, lower: int) -> None:
    """Start and goal cells, passable waypoints, adjacent-or-wait moves, the
    makespan against its lower bound ``lower``, and no vertex or swap
    conflict (agents rest at their goals)."""
    _expect(len(paths) == len(agents), "one path per agent")
    for i, (path, (start, goal)) in enumerate(zip(paths, agents)):
        path = [tuple(c) for c in path]
        _expect(len(path) > 0, f"agent {i} has an empty path")
        _expect(path[0] == start, f"agent {i} starts at {path[0]}, not {start}")
        _expect(path[-1] == goal, f"agent {i} ends at {path[-1]}, not {goal}")
        for t, cell in enumerate(path):
            _expect(grid.is_passable(cell), f"agent {i} at blocked {cell} at t={t}")
            if t:
                (x0, y0), (x1, y1) = path[t - 1], cell
                _expect(abs(x0 - x1) + abs(y0 - y1) <= 1, f"agent {i} jumps at t={t}")
    makespan = max(len(p) for p in paths) - 1
    _expect(makespan == cost, f"makespan {makespan}, reported cost {cost}")
    _expect(cost >= lower, f"cost {cost} below the distance lower bound {lower}")

    def at(path, t):
        return tuple(path[min(t, len(path) - 1)])

    for t in range(makespan + 1):
        here = [at(p, t) for p in paths]
        _expect(len(set(here)) == len(here), f"vertex conflict at t={t}")
        if t:
            moves = {(at(p, t - 1), at(p, t)) for p in paths}
            for u, v in moves:
                _expect(u == v or (v, u) not in moves, f"swap conflict on {u}-{v} at t={t}")


def check_margins(margins: dict, grid, agents, cost: int, generated: int) -> None:
    """``solve --json`` bound margins: each is >= 0 and equals the budget,
    recomputed from the benchmark's own MDD counts, minus log2(generated)."""
    k = len(agents)
    counts = [mdd_counts(grid, s, g, cost) for s, g in agents]
    log2_gen = math.log2(generated)
    s_budget = k * cost
    refs = {"mdd_exponential": float(sum(m for m, _, _ in counts)) - log2_gen}
    if s_budget:
        r = sum(m + e for m, e, _ in counts)
        refs["recurrence"] = recurrence_log2(r, s_budget) - log2_gen
        refs["rec_genfunc"] = s_budget * math.log2(math.e * grid.n) - log2_gen
    else:
        refs["recurrence"] = refs["rec_genfunc"] = -log2_gen
    _expect(sorted(margins) == sorted(refs), f"margin names {sorted(margins)}")
    for name, ref in refs.items():
        got = margins[name]
        _expect(got >= 0.0, f"negative {name} margin {got}")
        _expect(_close(got, ref, PRINT_TOL), f"{name} margin {got}, reference {ref:.6f}")
