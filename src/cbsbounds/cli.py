"""Command-line interface.

Subcommands: ``mdd`` (per-layer sizes), ``recurrence`` (exact or log2
evaluation), ``genfunc`` (critical points, contributions, series dump),
``bounds`` (one comparison report), ``table`` (CSV report for benchmark rows),
``plot`` (bound curves versus the recurrence), ``solve`` (reference solver
with the empirical bound check). All output is deterministic; log2 values are
printed with six decimals. Exit codes: 0 success, 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import bounds as bounds_mod
from . import genfunc, mdd, recurrence
from .cbs import (
    BoundViolationError,
    SearchLimitError,
    UnsolvableError,
    empirical_bound_check,
    solve,
    validate,
)
from .model import Cell, parse_map, parse_scen

SCHEMA_VERSION = 1

# keys of the dict bounds.compare returns, as the commands print them
_BOUND_LOG2_KEYS = ("org_log2", "rec_ind_log2", "rec_gf_log2")
_TABLE_LOG2_KEYS = (*_BOUND_LOG2_KEYS, "ratio_log2")
_EXP10_KEYS = ("org_exp10", "rec_ind_exp10", "rec_gf_exp10")


class InvalidSolutionError(RuntimeError):
    """The solver returned paths that fail validation."""


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _parse_cell(text: str) -> Cell:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValueError(f"expected a cell as 'x,y', got {text!r}") from None


def cmd_mdd(args) -> int:
    with open(args.map, encoding="utf-8") as fh:
        grid = parse_map(fh.read())
    start, goal = _parse_cell(args.start), _parse_cell(args.goal)
    widths = mdd.mdd_widths(grid, start, goal, args.c)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["t", "exact", "eq1_bound"])
    for t, width in enumerate(widths):
        writer.writerow([t, width, mdd.layer_bound(min(t, args.c - t))])
    return 0


def cmd_recurrence(args) -> int:
    if args.backend == "exact":
        print(recurrence.eval_exact(args.r, args.s))
    else:
        print(_fmt(recurrence.eval_log(args.r, args.s).log2))
    return 0


def cmd_genfunc(args) -> int:
    if args.series is not None:
        r_max, s_max = args.series
        series = genfunc.expand_series(r_max, s_max)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["r", "s", "coefficient"])
        for r in range(r_max + 1):
            for s in range(s_max + 1):
                writer.writerow([r, s, series[r][s]])
        return 0
    if args.linear is not None:
        if args.s is None:
            raise ValueError("--linear requires --s")
        print(_fmt(genfunc.approx_linear(args.linear, args.s).log2))
        return 0
    if args.r is None or args.s is None:
        raise ValueError("genfunc needs --r and --s, or --linear N --s S, or --series R S")
    points = genfunc.solve_critical_points(args.r, args.s)
    if len(points) == 2:
        print(
            f"note: smooth critical point absent for r={args.r}, s={args.s} "
            "(needs r > 2s > 0)",
            file=sys.stderr,
        )
    for point in points:
        if point.kind == "multiple":
            value = genfunc.contribution_multiple(point, args.r, args.s)
        else:
            value = genfunc.contribution_single(point, args.r, args.s)
        print(
            f"{point.label} {point.kind} x={_fmt(point.x)} y={_fmt(point.y)} "
            f"log2={_fmt(value.log2)}"
        )
    return 0


def _bound_inputs(args) -> bounds_mod.BoundInputs:
    return bounds_mod.BoundInputs(
        n=args.n,
        k=args.k,
        C=args.c,
        M=args.m,
        edge_mode=args.edges,
        objective=args.objective,
    )


def cmd_bounds(args) -> int:
    d = bounds_mod.compare(_bound_inputs(args))
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, **d}))
        return 0
    print(f"n: {d['n']}  k: {d['k']}  C: {d['C']}  M: {d['M']}")
    print(f"edge_mode: {d['edge_mode']}  objective: {d['objective']}")
    for key in (*_BOUND_LOG2_KEYS, "mdd_cube_log2", "ratio_log2"):
        print(f"{key}: {_fmt(d[key])}")
    for key in _EXP10_KEYS:
        print(f"{key}: {d[key]}")
    print("note: high-level conflict-tree bounds only; multiply by the")
    print("note: single-agent low-level search cost for a full running time.")
    return 0


def _table_rows(fh) -> list[tuple[str, int, int, int]]:
    """The (name, n, k, C) of every row of a table CSV; a missing column or a
    short row is a ValueError that names it."""
    reader = csv.DictReader(fh)
    rows = []
    for row in reader:
        for column in ("name", "n", "k", "C"):
            if column not in row:
                raise ValueError(f"table input has no {column!r} column")
            if row[column] is None:
                raise ValueError(f"line {reader.line_num}: no {column!r} field")
        rows.append((row["name"], int(row["n"]), int(row["k"]), int(row["C"])))
    return rows


def cmd_table(args) -> int:
    if args.input == "-":
        rows = _table_rows(sys.stdin)
    else:
        with open(args.input, encoding="utf-8", newline="") as fh:
            rows = _table_rows(fh)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "n", "k", "C", *_TABLE_LOG2_KEYS, *_EXP10_KEYS])
    for name, n, k, c in rows:
        d = bounds_mod.compare(bounds_mod.BoundInputs(n=n, k=k, C=c))
        writer.writerow(
            [name, n, k, c]
            + [_fmt(d[key]) for key in _TABLE_LOG2_KEYS]
            + [d[key] for key in _EXP10_KEYS]
        )
    return 0


def _plot_s(mode: str, n: int) -> int:
    import math

    if mode == "log":
        return max(1, math.ceil(math.log2(n)))
    if mode == "sqrt":
        return math.ceil(math.sqrt(n))
    return n


def cmd_plot(args) -> int:
    if args.n_min < 4 or args.n_max < args.n_min:
        raise ValueError("requires 4 <= n-min <= n-max")
    # each row's eval_log sums about 3 * min(s, n*s // 2 + 1) terms; stop
    # counting once the whole plot is over eval_log's own per-call limit
    terms = 0
    for n in range(args.n_min, args.n_max + 1):
        s = _plot_s(args.mode, n)
        terms += min(s, n * s // 2 + 1)
        if terms > recurrence._LOG_MAX_TERMS:
            raise ValueError(
                f"plot rows n = {args.n_min}..{args.n_max} each sum about "
                f"3 * min(s, n*s // 2 + 1) log terms; the total of "
                f"min(s, n*s // 2 + 1) is limited to {recurrence._LOG_MAX_TERMS}"
            )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "s", *_BOUND_LOG2_KEYS, "recurrence_log2"])
    for n in range(args.n_min, args.n_max + 1):
        s = _plot_s(args.mode, n)
        d = bounds_mod.compare(bounds_mod.BoundInputs(n=n, k=1, C=s))
        rec = recurrence.eval_log(n * s, s).log2
        writer.writerow([n, s, *[_fmt(d[key]) for key in _BOUND_LOG2_KEYS], _fmt(rec)])
    return 0


def cmd_solve(args) -> int:
    with open(args.map, encoding="utf-8") as fh:
        grid = parse_map(fh.read())
    with open(args.scen, encoding="utf-8") as fh:
        instance = parse_scen(fh.read(), args.agents, grid)
    paths, stats = solve(instance, "disjoint" if args.disjoint else "classic")
    violation = validate(instance, paths)
    if violation is not None:
        raise InvalidSolutionError(f"solver produced an invalid solution: {violation}")
    margins = empirical_bound_check(instance, stats)

    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "cost": stats.optimal_cost,
            "generated": stats.generated,
            "expanded": stats.expanded,
            "max_depth": stats.max_depth,
            "negative_applied": stats.negative_applied,
            "positive_applied": stats.positive_applied,
            "low_level_calls": stats.low_level_calls,
            "conflict_steps_scanned": stats.conflict_steps_scanned,
            "paths": [[list(cell) for cell in path] for path in paths],
            "bound_margins_log2": {
                name: round(margin, 6) for name, margin in margins.items()
            },
        }
        print(json.dumps(payload))
        return 0
    print(f"cost: {stats.optimal_cost}")
    print(
        f"generated: {stats.generated}  expanded: {stats.expanded}  "
        f"max_depth: {stats.max_depth}"
    )
    print(
        f"negative_applied: {stats.negative_applied}  "
        f"positive_applied: {stats.positive_applied}"
    )
    for i, path in enumerate(paths):
        steps = "->".join(f"({x},{y})" for x, y in path)
        print(f"agent {i}: {steps}")
    for name, margin in margins.items():
        print(f"margin[{name}]: {_fmt(margin)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs far more than one parse."""
    parser = argparse.ArgumentParser(
        prog="cbsbounds",
        description="Worst-case CBS bound calculators and a reference solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mdd", help="per-layer MDD sizes as CSV")
    p.add_argument("--map", required=True)
    p.add_argument("--start", required=True, help="cell as x,y")
    p.add_argument("--goal", required=True, help="cell as x,y")
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_mdd)

    p = sub.add_parser("recurrence", help="evaluate the budget recurrence")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--backend", choices=("exact", "log"), default="exact")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("genfunc", help="critical points and contributions")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--linear", type=int, metavar="N")
    p.add_argument("--series", type=int, nargs=2, metavar=("R", "S"))
    p.set_defaults(func=cmd_genfunc)

    p = sub.add_parser("bounds", help="one bound comparison report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--edges", choices=bounds_mod.EDGE_MODES, default="none")
    p.add_argument("--objective", choices=bounds_mod.OBJECTIVES, default="makespan")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="benchmark-table CSV from name,n,k,C rows")
    p.add_argument("--input", default="-", help="CSV path or - for stdin")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("plot", help="bound curves versus the recurrence, CSV")
    p.add_argument("--mode", choices=("log", "sqrt", "linear"), required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("solve", help="run the reference solver on a scenario")
    p.add_argument("--map", required=True)
    p.add_argument("--scen", required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--disjoint", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        UnsolvableError,
        SearchLimitError,
        BoundViolationError,
        InvalidSolutionError,
        ValueError,
        OverflowError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
