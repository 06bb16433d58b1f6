#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny pass of every workload must pass its
checks, and the checks must reject corrupted outputs.

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile

import run
import gen
import oracle
import workloads


def expect_reject(name: str, check) -> bool:
    try:
        check()
    except oracle.CheckError as exc:
        print(f"ok    {name} rejected: {exc}")
        return True
    print(f"FAIL  {name} was accepted")
    return False


def main() -> int:
    pkg = run.import_package()
    ok = True
    workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT)
    try:
        for name, build in workloads.BUILDERS.items():
            wl = build(random.Random(7), pkg, workdir, True)
            results, _ = run.run_passes(wl, 0.0, max_passes=1)
            passed = results.failed == 0
            ok &= passed
            print(f"{'ok   ' if passed else 'FAIL '} tiny {name}: {results.failed} of "
                  f"{results.attempted} tasks fail {dict(results.failures)}")

        # a swap on an open 3x3 grid: no shared cell at any time, one swapped edge
        open3 = gen.Grid(3, 3, [[True] * 3 for _ in range(3)])
        agents = [((0, 0), (1, 0)), ((1, 0), (0, 0))]
        ok &= expect_reject("path with a swap conflict", lambda: oracle.check_paths(
            open3, agents, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]], 1, 1))

        grid = gen.random_grid(random.Random(3), 10, 10, 0.2)
        start, goal = grid.cells[0], grid.cells[-1]
        cost = grid.bfs(start)[goal] + 3
        nodes, edges = pkg.mdd.mdd_size(pkg.mdd.build_mdd(
            pkg.model.parse_map(grid.map_text()), start, goal, cost))
        ref = oracle.mdd_counts(grid, start, goal, cost)
        oracle.check_mdd_size((nodes, edges), ref, "exact MDD")
        ok &= expect_reject("MDD node count off by one",
                            lambda: oracle.check_mdd_size((nodes + 1, edges), ref, "MDD"))

        value = pkg.recurrence.eval_log(2000, 60).log2
        oracle.check_recurrence_log(2000, 60, value)
        ok &= expect_reject("eval_log value perturbed by 1e-6",
                            lambda: oracle.check_recurrence_log(2000, 60, value + 1e-6))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
