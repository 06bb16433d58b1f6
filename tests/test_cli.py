from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import cbsbounds.cbs as cbs
import cbsbounds
from cbsbounds import bound_original, BoundInputs, eval_exact, eval_log, serialize_map
from cbsbounds.cli import _fmt, main
from conftest import random_grid
from oracles import dijkstra_field, mdd_layer_oracle

MAP_TEXT = "type octile\nheight 2\nwidth 5\nmap\n.....\n@@.@@\n"
SCEN_TEXT = (
    "version 1\n"
    "0\tpocket.map\t5\t2\t0\t0\t4\t0\t4\n"
    "0\tpocket.map\t5\t2\t4\t0\t0\t0\t4\n"
)


@pytest.fixture
def pocket_files(tmp_path):
    map_path = tmp_path / "pocket.map"
    scen_path = tmp_path / "pocket.scen"
    map_path.write_text(MAP_TEXT)
    scen_path.write_text(SCEN_TEXT)
    return str(map_path), str(scen_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's ``cbsbounds``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbsbounds.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestDispatch:
    def test_no_arguments_usage_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recurrence", "--r", "2", "--s", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "3", "--k", "1", "--c", "1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["bounds", "--n", str(10**310), "--k", "1", "--c", "1"], "n"),
            (["recurrence", "--r", str(10**400), "--s", "2", "--backend", "log"], "r"),
            (["genfunc", "--linear", str(10**400), "--s", "3"], "n"),
            (["genfunc", "--r", str(10**400), "--s", "3"], "r"),
            (
                ["bounds", "--n", str(10**200), "--k", str(10**200), "--c", "1"],
                "n * k * C",
            ),
            (
                ["bounds", "--n", str(10**160), "--k", "1", "--c", "1", "--edges", "general"],
                "(2n^2 + n) * k * C",
            ),
        ],
        ids=[
            "bounds",
            "recurrence-log",
            "genfunc-linear",
            "genfunc-points",
            "bounds-product",
            "bounds-general-product",
        ],
    )
    def test_float_overflow_exit_1(self, capsys, argv, name):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert f"error: {name} is past float range" in err


class TestRecurrenceCommand:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "--r", "2", "--s", "1")
        assert code == 0
        assert out.strip() == "5"

    def test_log_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--r", "40", "--s", "20", "--backend", "log"
        )
        assert code == 0
        expected = math.log2(eval_exact(40, 20))
        assert float(out.strip()) == pytest.approx(expected, abs=1e-4)

    def test_ceiling_violation_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "recurrence", "--r", "4000", "--s", "4000"
        )
        assert code == 1
        assert "eval_log" in err

    def test_positive_budget_past_half_r_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "--r", "10", "--s", "1000000000")
        assert code == 0
        assert out == "287\n"

    def test_small_value_at_huge_r_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "--r", "10000000", "--s", "1")
        assert code == 0
        assert out == "20000001\n"

    def test_log_term_limit_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "recurrence", "--r", "1000000000000", "--s", "1000001", "--backend", "log",
        )
        assert code == 1
        assert "error:" in err


class TestBoundsCommand:
    def test_flagship_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "9776", "--k", "8", "--c", "120"
        )
        assert code == 0
        assert "org_log2: 9384960.000000" in out
        assert "org_exp10: 7" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "9776", "--k", "8", "--c", "120", "--json"
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["org_log2"] == 9384960.0


class TestMddCommand:
    def test_layer_csv(self, capsys, tmp_path):
        map_path = tmp_path / "open.map"
        map_path.write_text("type octile\nheight 5\nwidth 5\nmap\n" + (".....\n" * 5))
        code, out, _ = run_cli(
            capsys,
            "mdd", "--map", str(map_path),
            "--start", "2,2", "--goal", "2,2", "--c", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,exact,eq1_bound"
        assert lines[1] == "0,1,0"
        assert lines[2] == "1,5,4"
        assert lines[3] == "2,1,0"

    def test_csv_matches_layer_oracle(self, capsys, tmp_path):
        rng = random.Random(67)
        map_path = tmp_path / "random.map"
        checked = 0
        while checked < 30:
            grid = random_grid(rng, rng.randint(1, 9), rng.randint(1, 9))
            cells = list(grid.cells())
            start, goal = rng.choice(cells), rng.choice(cells)
            d = dijkstra_field(grid, start).get(goal)
            if d is None:
                continue
            map_path.write_text(serialize_map(grid))
            for cost in (d, d + 3):
                code, out, _ = run_cli(
                    capsys,
                    "mdd", "--map", str(map_path), "--start", "%d,%d" % start,
                    "--goal", "%d,%d" % goal, "--c", str(cost),
                )
                assert code == 0
                layers = mdd_layer_oracle(grid, start, goal, cost)
                rows = [
                    f"{t},{w},{2 * m * (m + 1)}"
                    for t, w in enumerate(map(len, layers))
                    for m in [min(t, cost - t)]
                ]
                assert out.splitlines() == ["t,exact,eq1_bound"] + rows
            checked += 1

    def test_huge_cost_exit_1_fast(self, capsys, tmp_path):
        map_path = tmp_path / "open.map"
        map_path.write_text("type octile\nheight 3\nwidth 3\nmap\n" + "...\n" * 3)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "mdd", "--map", str(map_path),
            "--start", "0,0", "--goal", "2,2", "--c", "1000000000",
        )
        assert time.perf_counter() - start < 0.2
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "node limit" in err

    def test_huge_header_exit_1(self, capsys, tmp_path):
        map_path = tmp_path / "huge.map"
        map_path.write_text("type octile\nheight 1000000\nwidth 1000000\nmap\n..\n")
        code, out, err = run_cli(
            capsys,
            "mdd", "--map", str(map_path), "--start", "0,0", "--goal", "1,0", "--c", "1",
        )
        assert code == 1
        assert out == ""
        assert err == "error: line 5: row length 2 does not match width 1000000\n"


class TestGenfuncCommand:
    def test_contributions(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--r", "30", "--s", "10")
        assert code == 0
        assert "q1 multiple" in out
        assert "q2 multiple" in out and "log2=0.000000" in out
        assert "q3 single x=0.500000 y=2.000000" in out

    def test_missing_smooth_point_notes(self, capsys):
        code, out, err = run_cli(capsys, "genfunc", "--r", "10", "--s", "10")
        assert code == 0
        assert "q3" not in out
        assert "absent" in err

    def test_linear(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--linear", "10", "--s", "5")
        assert code == 0
        assert float(out.strip()) > 0

    def test_series_csv(self, capsys):
        code, out, _ = run_cli(capsys, "genfunc", "--series", "3", "2")
        lines = out.strip().splitlines()
        assert lines[0] == "r,s,coefficient"
        table = {
            (int(r), int(s)): int(c)
            for r, s, c in (line.split(",") for line in lines[1:])
        }
        assert table[(0, 0)] == 1
        assert table[(1, 1)] == 3
        assert table[(2, 1)] == 5

    def test_series_over_the_cell_limit_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "genfunc", "--series", "1000", "1000")
        assert code == 1
        assert out == ""
        assert "cell limit" in err


class TestTableCommand:
    def test_csv_round_trip(self, capsys, tmp_path):
        src = tmp_path / "rows.csv"
        src.write_text("name,n,k,C\nempty-a,2304,64,70\nwarehouse-a,9776,8,120\n")
        code, out, _ = run_cli(capsys, "table", "--input", str(src))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,n,k,C,org_log2")
        first = lines[1].split(",")
        assert first[0] == "empty-a"
        assert float(first[4]) == bound_original(BoundInputs(n=2304, k=64, C=70)).log2
        assert first[8] == "8"

    def test_missing_column_exit_1(self, capsys, tmp_path):
        src = tmp_path / "rows.csv"
        src.write_text("name,n,k\nempty-a,2304,64\n")
        code, out, err = run_cli(capsys, "table", "--input", str(src))
        assert code == 1
        assert out == ""
        assert err == "error: table input has no 'C' column\n"

    def test_short_row_exit_1(self, capsys, tmp_path):
        src = tmp_path / "rows.csv"
        src.write_text("name,n,k,C\nempty-a,2304,64,70\nwarehouse-a,9776,8\n")
        code, out, err = run_cli(capsys, "table", "--input", str(src))
        assert code == 1
        assert out == ""
        assert err == "error: line 3: no 'C' field\n"


class TestPlotCommand:
    def test_log_mode_monotone_and_ordered(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "--mode", "log", "--n-min", "16", "--n-max", "40"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,s,org_log2,rec_ind_log2,rec_gf_log2,recurrence_log2"
        last_org = -1.0
        for line in lines[1:]:
            parts = line.split(",")
            org, ind, gf, rec = (float(v) for v in parts[2:6])
            assert org >= last_org
            last_org = org
            assert gf <= ind <= org
            assert rec <= gf + 1e-6

    def test_linear_mode_sandwich(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "--mode", "linear", "--n-min", "16", "--n-max", "16"
        )
        parts = out.strip().splitlines()[1].split(",")
        assert parts[1] == "16"
        assert float(parts[5]) <= float(parts[4])

    @pytest.mark.parametrize("mode", ["log", "sqrt", "linear"])
    def test_recurrence_column_is_eval_log(self, capsys, mode):
        code, out, _ = run_cli(
            capsys, "plot", "--mode", mode, "--n-min", "4", "--n-max", "150"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 147
        for row in rows:
            parts = row.split(",")
            n, s = int(parts[0]), int(parts[1])
            assert len(parts) == 6
            assert parts[5] == _fmt(eval_log(n * s, s).log2), row


    def test_huge_range_exit_1_fast(self, capsys):
        # about 1.5 * 10**12 log terms, refused before the first row
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "plot", "--mode", "linear", "--n-min", "4", "--n-max", "1000000"
        )
        assert time.perf_counter() - start < 0.2
        assert code == 1
        assert out == ""
        assert err.startswith("error: plot rows n = 4..1000000") and "limited" in err


class TestSolveCommand:
    def test_text_output(self, capsys, pocket_files):
        map_path, scen_path = pocket_files
        code, out, _ = run_cli(
            capsys, "solve", "--map", map_path, "--scen", scen_path, "--agents", "2"
        )
        assert code == 0
        assert out.startswith("cost: ")
        assert "margin[recurrence]:" in out

    def test_json_output_disjoint(self, capsys, pocket_files):
        map_path, scen_path = pocket_files
        code, out, _ = run_cli(
            capsys,
            "solve", "--map", map_path, "--scen", scen_path,
            "--agents", "2", "--disjoint", "--json",
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["cost"] >= 4
        assert len(payload["paths"]) == 2
        assert all(m >= 0 for m in payload["bound_margins_log2"].values())
        assert payload["low_level_calls"] >= 2
        assert payload["conflict_steps_scanned"] >= payload["cost"] + 1

    def test_invalid_solution_is_domain_error(self, capsys, pocket_files, monkeypatch):
        import cbsbounds.cli as cli

        real_solve = cli.solve

        def colliding_solve(instance, splitting):
            _, stats = real_solve(instance, splitting)
            # both agents end on (2, 0): they collide and miss their goals
            crash = (((0, 0), (1, 0), (2, 0)), ((4, 0), (3, 0), (2, 0)))
            return crash, stats

        monkeypatch.setattr(cli, "solve", colliding_solve)
        map_path, scen_path = pocket_files
        code, out, err = run_cli(
            capsys, "solve", "--map", map_path, "--scen", scen_path, "--agents", "2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: solver produced an invalid solution")

    def test_map_below_four_cells_drops_the_genfunc_margin(self, capsys, tmp_path):
        # (e n)**(kC) holds only for n >= 4; a 3-cell corridor still solves
        map_path, scen_path = tmp_path / "corridor.map", tmp_path / "corridor.scen"
        map_path.write_text("type octile\nheight 1\nwidth 3\nmap\n...\n")
        scen_path.write_text("version 1\n0\tcorridor.map\t3\t1\t0\t0\t2\t0\t2\n")
        code, out, _ = run_cli(
            capsys,
            "solve", "--map", str(map_path), "--scen", str(scen_path),
            "--agents", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == 2
        assert payload["paths"] == [[[0, 0], [1, 0], [2, 0]]]
        margins = payload["bound_margins_log2"]
        assert sorted(margins) == ["mdd_exponential", "recurrence"]
        assert margins["mdd_exponential"] == 3.0  # three MDD nodes, one CT node
        assert margins["recurrence"] >= 0

    def test_search_limit_exit_1(self, capsys, tmp_path, monkeypatch):
        # a corridor with one bay; classic splitting would run 50,000 nodes
        monkeypatch.setattr(cbs, "_CT_MAX_NODES", 100)
        map_path = tmp_path / "bay.map"
        scen_path = tmp_path / "bay.scen"
        map_path.write_text("type octile\nheight 2\nwidth 7\nmap\n@@@@@.@\n.......\n")
        scen_path.write_text(
            "version 1\n"
            "0\tbay.map\t7\t2\t0\t1\t1\t1\t1\n"
            "0\tbay.map\t7\t2\t1\t1\t0\t1\t1\n"
        )
        code, out, err = run_cli(
            capsys, "solve", "--map", str(map_path), "--scen", str(scen_path),
            "--agents", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: conflict tree reached the 100-node limit")

    def test_byte_identical_reruns(self, capsys, pocket_files):
        map_path, scen_path = pocket_files
        argv = ["solve", "--map", map_path, "--scen", scen_path, "--agents", "2"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


FRESH_MAIN = "import sys; from cbsbounds.cli import main; sys.exit(main(sys.argv[1:]))"

NUMPY_FREE = """
import contextlib, io, json, sys
import cbsbounds.cli as cli
from cbsbounds import model
runs, map_path = json.loads(sys.argv[1]), sys.argv[2]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy imported"
assert "fractions" not in sys.modules, "fractions imported"
with open(map_path, encoding="utf-8") as fh:
    model.radius(model.parse_map(fh.read()))
assert "numpy" in sys.modules, "radius ran without numpy"
"""


class TestProcess:
    def test_numpy_stays_off_the_import_path(self, pocket_files, tmp_path):
        map_path, scen_path = pocket_files
        table = tmp_path / "rows.csv"
        table.write_text("name,n,k,C\nrow,100,3,10\n")
        runs = [
            ["bounds", "--n", "100", "--k", "3", "--c", "10", "--json"],
            ["table", "--input", str(table)],
            ["recurrence", "--r", "40", "--s", "20"],
            ["genfunc", "--r", "10", "--s", "3"],
            ["mdd", "--map", map_path, "--start", "0,0", "--goal", "4,0", "--c", "6"],
            ["solve", "--map", map_path, "--scen", scen_path, "--agents", "2", "--json"],
        ]
        done = run_python("-c", NUMPY_FREE, json.dumps(runs), map_path)
        assert done.returncode == 0, done.stderr

    def test_reused_parser_matches_fresh_processes(self, capsys, pocket_files):
        map_path, scen_path = pocket_files
        solve = ["solve", "--map", map_path, "--scen", scen_path, "--agents", "2"]
        runs = [
            (["bounds", "--n", "100", "--k", "3", "--c", "10", "--json"], 0),
            (["bounds", "--n", "100", "--k", "3", "--c", "10"], 0),
            (["genfunc", "--series", "3", "3"], 0),
            (["genfunc", "--r", "10", "--s", "3"], 0),
            (["bounds", "--n", "100", "--json"], 2),
            (solve + ["--disjoint", "--json"], 0),
            (solve, 0),
        ]
        for argv, expected in runs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code == expected
            fresh = run_python("-c", FRESH_MAIN, *argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
