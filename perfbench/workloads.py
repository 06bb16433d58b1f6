"""The four benchmark workloads, each a fixed task list built from a seed.

A task is one user-visible request: a CLI invocation (``cli.main`` with stdout
captured) or one public library call. Its ``run`` is timed; its ``check``
compares the output with ``oracle`` and is not timed. Tasks look library
functions up through the module objects in ``mods`` at call time, so a traced
run sees the timing wrappers that ``tracing`` installs there.

Why each workload exists, and which layer it is meant to stress:

* ``bound-table``: bound arithmetic only (recurrence, genfunc, bounds, CLI
  formatting); no graph and no solver. Recurrence and CLI-overhead changes
  show here.
* ``map-graph``: only the model and MDD layers, with ``distance_field`` used
  all-sources (``radius``) and single-source (MDD builds).
* ``solve-check``: the user-facing ``solve --json`` pipeline on sparse
  instances: parse, solve, validate, k MDD builds and the bound check, whose
  recurrence step dominates today.
* ``ct-search``: library ``solve`` with both splittings on contended
  instances, where the conflict-tree loop, the low-level A* and conflict
  detection take most of the time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle

# The paper's benchmark rows (name, n, k, C), as in demos/04_benchmark_bound_table.py.
PAPER_ROWS = [
    ("warehouse-a", 9776, 8, 120),
    ("warehouse-b", 9776, 64, 140),
    ("warehouse-c", 38756, 128, 250),
    ("warehouse-d", 38756, 256, 250),
    ("room-a", 206642, 8, 400),
    ("room-b", 206642, 8, 500),
    ("empty-a", 2304, 64, 70),
    ("empty-b", 2304, 128, 80),
    ("random-a", 3687, 64, 100),
    ("random-b", 3687, 128, 100),
]

# The recurrence ladder of the project roadmap; the exact backend runs where
# r * s fits under the library's default one-million-cell ceiling.
LADDER = [(2000, 60), (100_000, 100), (200_000, 300)]
EXACT_CEILING = 10**6

LINEAR_REL_TOL = 1e-2  # asymptotic approximation, n >= 4, s >= 20


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    inputs: list[str] = field(default_factory=list)  # texts hashed into the digest
    tail_pct: int = 90  # tail percentile reported as task_s_p90
    deadline_s: float = 30.0  # per task, enforced by an interval timer


def run_cli(mods, argv: list[str]):
    """``cli.main(argv)`` with stdout and stderr captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _ok(result) -> str:
    code, text = result
    if code != 0:
        raise oracle.CheckError(f"exit code {code}")
    return text


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _once(fn):
    """Memoise a zero-argument reference computation across cycles."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# --- bound-table -------------------------------------------------------------

def bound_table(rng: random.Random, mods, workdir: str, tiny: bool) -> Workload:
    rows = PAPER_ROWS[:3] if tiny else PAPER_ROWS
    ladder = [(40, 6), (300, 12)] if tiny else LADDER
    csv_text = "name,n,k,C\n" + "".join(f"{r[0]},{r[1]},{r[2]},{r[3]}\n" for r in rows)
    csv_path = _write(workdir, "rows.csv", csv_text)
    tasks = []
    argvs = [csv_text]  # hashed into the inputs digest, without the work directory

    def cli_task(label, argv, check):
        argvs.append(" ".join(os.path.basename(a) for a in argv))
        return Task(label, lambda: run_cli(mods, argv), check)

    def check_table(text):
        got = list(csv.DictReader(io.StringIO(_ok(text))))
        if [g["name"] for g in got] != [r[0] for r in rows]:
            raise oracle.CheckError("table rows differ from the input rows")
        for g, (_, n, k, c) in zip(got, rows):
            oracle.check_bounds(g, n, k, c, "none", oracle.PRINT_TOL)

    tasks.append(cli_task("table", ["table", "--input", csv_path], check_table))

    for _, n, k, c in rows:
        for edges in ("none", "grid"):
            for objective in ("makespan", "soc"):
                argv = ["bounds", "--n", str(n), "--k", str(k), "--c", str(c),
                        "--edges", edges, "--objective", objective, "--json"]

                def check_bounds(result, n=n, k=k, c=c, edges=edges):
                    d = json.loads(_ok(result))
                    if (d["n"], d["k"], d["C"], d["M"]) != (n, k, c, n * c):
                        raise oracle.CheckError("bounds echoed the wrong inputs")
                    oracle.check_bounds(d, n, k, c, edges)

                tasks.append(cli_task("bounds", argv, check_bounds))

    def recurrence_task(r, s, backend):
        argv = ["recurrence", "--r", str(r), "--s", str(s), "--backend", backend]
        if backend == "log":
            def check(result):
                oracle.check_recurrence_log(r, s, float(_ok(result)), oracle.PRINT_TOL)
        else:
            def check(result):
                oracle.check_recurrence_exact(r, s, int(_ok(result)))
        return cli_task(f"recurrence-{backend}", argv, check)

    for r0, s in ladder:
        r = r0 + rng.randrange(r0 // 100 + 1)
        tasks.append(recurrence_task(r, s, "log"))
        if r * s <= EXACT_CEILING:
            tasks.append(recurrence_task(r, s, "exact"))
    # smaller queries of about equal size, both backends, so that the tail
    # percentile falls among recurrence tasks rather than at the edge of the
    # cheap CLI calls
    for i in range(2 if tiny else 16):
        tasks.append(recurrence_task(rng.randrange(4800, 5201), rng.randrange(48, 53),
                                     ("log", "exact")[i % 2]))

    for _ in range(2 if tiny else 8):
        s = rng.randrange(10, 200)
        r = rng.randrange(s, 50 * s)
        argv = ["genfunc", "--r", str(r), "--s", str(s)]

        def check_points(result, r=r, s=s):
            oracle.check_critical_points(_ok(result).splitlines(), r, s)

        tasks.append(cli_task("genfunc-points", argv, check_points))
    for _ in range(2 if tiny else 8):
        n, s = rng.randrange(4, 40), rng.randrange(20, 200)
        argv = ["genfunc", "--linear", str(n), "--s", str(s)]

        def check_linear(result, n=n, s=s):
            oracle.check_linear(float(_ok(result)), n, s, LINEAR_REL_TOL)

        tasks.append(cli_task("genfunc-linear", argv, check_linear))

    rng.shuffle(tasks)
    return Workload("bound-table", tasks, argvs, tail_pct=85, deadline_s=60.0)


# --- map-graph ---------------------------------------------------------------

BAND = 0.08  # accepted deviation from an input-size target


def _near(value: int, target) -> bool:
    return target is None or abs(value - target) <= BAND * target


def _pair(rng, grid, d_lo, d_hi):
    """A start-goal pair whose BFS distance lies in [d_lo, d_hi]."""
    while True:
        start = rng.choice(grid.cells)
        dist = grid.bfs(start)
        band = sorted(c for c, d in dist.items() if d_lo <= d <= d_hi)
        if band:
            goal = rng.choice(band)
            return start, goal, dist[goal]


def _mdd_case(rng, grid, d_band, slack_band, target_nodes):
    """(start, goal, C) with C = distance + slack from the bands, redrawn
    until the MDD's node count, from the generator's BFS, is near the target."""
    while True:
        start, goal, d = _pair(rng, grid, *d_band)
        cost = d + rng.randrange(slack_band[0], slack_band[1] + 1)
        if _near(oracle.mdd_counts(grid, start, goal, cost)[0], target_nodes):
            return start, goal, cost


def map_graph(rng: random.Random, mods, workdir: str, tiny: bool) -> Workload:
    scale = 4 if tiny else 1
    specs = {  # name: (side, obstacle density)
        "open24": (24 // scale, 0.0),
        "rand32": (32 // scale, 0.2),
        "rand48": (48 // scale, 0.2),
        "open64": (64 // scale, 0.0),
    }
    grids = {name: gen.random_grid(rng, w, w, dens) for name, (w, dens) in specs.items()}
    texts = {name: g.map_text() for name, g in grids.items()}
    parsed = {name: mods.model.parse_map(text) for name, text in texts.items()}
    paths = {name: _write(workdir, f"{name}.map", text) for name, text in texts.items()}
    tasks = []
    params = []

    names = list(texts)
    for i in range(10):
        name = names[i % len(names)]

        def check_parse(gm, g=grids[name]):
            if (gm.width, gm.height) != (g.width, g.height) or gm.passable.tolist() != g.passable:
                raise oracle.CheckError("parsed mask differs from the generated map")

        tasks.append(Task("parse", lambda text=texts[name]: mods.model.parse_map(text), check_parse))

    for name in ("open24", "rand32"):
        g = grids[name]
        probes = rng.sample(g.cells, 3)
        params.append(f"probes {name} {probes}")

        def check_radius(result, g=g, probes=probes, is_open=specs[name][1] == 0.0):
            oracle.check_radius(g, result, probes, is_open)

        tasks.append(Task("radius", lambda gm=parsed[name]: mods.model.radius(gm), check_radius))

    # C = shortest distance + slack, both drawn from narrow bands (C <= 140),
    # and the MDD's size near a target, so that every seed asks for about the
    # same work. The counts put the median inside the 20 builds on 32x32 and
    # the tail percentile inside the 13 dearest tasks (48x48 and up).
    # name: (library builds, CLI builds, distance band, slack band, node target)
    mdd_specs = {
        "rand32": (18, 2, (22, 26), (14, 16), 3570),
        "rand48": (9, 1, (64, 68), (20, 24), 23600),
        "open64": (1, 0, (102, 106), (26, 30), 101500),
    }
    for name, (n_lib, n_cli, d_band, slack_band, target) in mdd_specs.items():
        g = grids[name]
        if tiny:
            n_lib, d_band, slack_band, target = 2, (2, 2 * g.width - 4), (1, 4), None
        for use_cli in [False] * n_lib + [True] * n_cli:
            start, goal, cost = _mdd_case(rng, g, d_band, slack_band, target)
            params.append(f"mdd {name} {start} {goal} {cost} cli={use_cli}")
            ref = _once(lambda g=g, start=start, goal=goal, cost=cost: oracle.mdd_counts(g, start, goal, cost))
            if use_cli:
                argv = ["mdd", "--map", paths[name], "--start", f"{start[0]},{start[1]}",
                        "--goal", f"{goal[0]},{goal[1]}", "--c", str(cost)]

                def check_cli(result, ref=ref, cost=cost):
                    rows = list(csv.reader(io.StringIO(_ok(result))))
                    oracle.check_mdd_layers(rows, ref()[2], cost)

                tasks.append(Task("cli-mdd", lambda argv=argv: run_cli(mods, argv), check_cli))
            else:
                def build(gm=parsed[name], start=start, goal=goal, cost=cost):
                    return mods.mdd.mdd_size(mods.mdd.build_mdd(gm, start, goal, cost))

                def check_size(result, ref=ref, what=f"mdd {name} C={cost}"):
                    oracle.check_mdd_size(result, ref(), what)

                tasks.append(Task("mdd", build, check_size))

    rng.shuffle(tasks)
    return Workload("map-graph", tasks, list(texts.values()) + params,
                    tail_pct=75, deadline_s=30.0)


# --- solver workloads ----------------------------------------------------------

def solve_check(rng: random.Random, mods, workdir: str, tiny: bool) -> Workload:
    """Sparse instances, one ``solve --json`` task each, splittings alternating.

    The bound check's cost follows its recurrence budget r = sum(M_i + E_i),
    the agents' MDD sizes at the makespan. A lead agent at exactly side - 2
    sets the makespan, the others sit at about half of it, and instances are
    redrawn until r, counted with the generator's BFS, is near a per-config
    target. The per-task cost then varies little between seeds.
    """
    # (side, k, count, budget target): the median falls among the 24 cheapest
    # tasks and the tail percentile among the next ten, away from the strata's
    # edges. The exact backend serves the 16x16 tasks; the two largest targets
    # keep r * s above its one-million-cell ceiling, so that those tasks take
    # the log path and no task sits on the switch.
    configs = [(8, 2, 2, None)] if tiny else [
        (16, 4, 24, 3080), (16, 6, 10, 4920), (16, 8, 2, 7070),
        (20, 6, 2, 10600), (24, 4, 2, 12600),
    ]
    tasks = []
    inputs = []
    for side, k, count, target in configs:
        cost = side - 2
        half = cost // 2
        for i in range(count):
            while True:
                grid = gen.random_grid(rng, side, side, 0.2)
                agents = gen.lead_agents(rng, grid, k, (cost, cost), (half - 1, half + 1))
                budget = sum(sum(oracle.mdd_counts(grid, s, g, cost)[:2]) for s, g in agents)
                if _near(budget, target):
                    break
            name = f"m{side}-{k}-{i}"
            map_text = grid.map_text()
            scen = gen.scen_text(grid, f"{name}.map", agents)
            inputs += [map_text, scen]
            map_path = _write(workdir, f"{name}.map", map_text)
            scen_path = _write(workdir, f"{name}.scen", scen)
            argv = ["solve", "--map", map_path, "--scen", scen_path, "--agents", str(k), "--json"]
            if i % 2:
                argv.append("--disjoint")

            def check(result, grid=grid, agents=agents):
                d = json.loads(_ok(result))
                lower = oracle.distance_lower_bound(grid, agents)
                oracle.check_paths(grid, agents, d["paths"], d["cost"], lower)
                oracle.check_margins(d["bound_margins_log2"], grid, agents, d["cost"], d["generated"])

            tasks.append(Task(f"solve-{side}-{k}", lambda argv=argv: run_cli(mods, argv), check))
    rng.shuffle(tasks)
    return Workload("solve-check", tasks, inputs, tail_pct=75, deadline_s=30.0)


def ct_search(rng: random.Random, mods, workdir: str, tiny: bool) -> Workload:
    """Contended instances, each solved with classic then disjoint splitting;
    the two optimal costs must agree.

    Eight agents share a 12 x 12 map with 5% obstacles. A lead agent at
    distance 16-22 sets the makespan and the others are at distance 1-12, so
    conflicts grow the conflict tree without forcing the makespan up. At 15%
    obstacles and more, a few solves in a thousand reach the solver's
    exponential tail (seconds each; the solver has no node budget), which no
    per-seed average survives.
    """
    count = 4 if tiny else 300
    tasks = []
    inputs = []
    for i in range(count):
        grid = gen.random_grid(rng, 12, 12, 0.05)
        agents = gen.lead_agents(rng, grid, 8, (16, 22), (1, 12))
        map_text = grid.map_text()
        scen = gen.scen_text(grid, f"ct{i}.map", agents)
        inputs += [map_text, scen]
        gm = mods.model.parse_map(map_text)
        instance = mods.model.parse_scen(scen, len(agents), gm)
        costs = {}
        lower = _once(lambda grid=grid, agents=agents: oracle.distance_lower_bound(grid, agents))
        for splitting in ("classic", "disjoint"):
            def check(result, grid=grid, agents=agents, costs=costs, splitting=splitting, lower=lower):
                paths, stats = result
                oracle.check_paths(grid, agents, paths, stats.optimal_cost, lower())
                costs[splitting] = stats.optimal_cost
                if splitting == "disjoint" and costs.get("classic") != stats.optimal_cost:
                    raise oracle.CheckError(
                        f"disjoint cost {stats.optimal_cost} != classic {costs.get('classic')}"
                    )

            tasks.append(Task(
                f"solve-{splitting}",
                lambda inst=instance, sp=splitting: mods.cbs.solve(inst, sp),
                check,
            ))
    return Workload("ct-search", tasks, inputs, tail_pct=90, deadline_s=10.0)


BUILDERS = {
    "bound-table": bound_table,
    "map-graph": map_graph,
    "solve-check": solve_check,
    "ct-search": ct_search,
}
