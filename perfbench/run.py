#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. One
client runs the workload's task list in a closed loop, whole passes at a
time, for at least three passes and until the summed task time reaches
``--seconds``. A task's latency is its fastest time over the passes, scaled
to a nominal machine speed by a calibration loop timed between tasks (see
``Scaler``); raw figures are printed as well. Every output is
checked against ``oracle``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (throughput, median and tail task
  latency, set-up time, peak memory), with no wrappers installed;
* ``--trace 1``: one untraced pass, then one pass with timing wrappers on
  every layer (see ``tracing``), and the per-layer metrics of that pass.

The lines before it give each metric with its unit and sample count, the
failed fraction with the reasons, and a digest of the generated inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3  # samples per task, spread over the run
WARMUP_SEED = 12345
HARD_STOP_S = 150.0  # no new task starts after this much wall time
CAL_EVERY_S = 0.2  # task time between two calibration samples
CAL_REF_S = 1e-3  # the calibration loop's time at the nominal machine speed


class Deadline(Exception):
    """A task ran past its workload's per-task deadline."""


def _alarm(signum, frame):
    raise Deadline()


def import_package():
    """A fresh import of ``cbsbounds`` from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "cbsbounds" or m.startswith("cbsbounds.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("cbsbounds")
    importlib.import_module("cbsbounds.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cbsbounds imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _calibration_loop() -> int:
    """Fixed pure-Python work: integer arithmetic and dict traffic."""
    table: dict[int, int] = {}
    for i in range(6000):
        table[i & 255] = (i * i) % 7 + table.get((i >> 1) & 255, 0) % 5
    return len(table)


def calibrate() -> float:
    """Fastest of three runs of the calibration loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


class Results:
    """Every task execution of a run, by task index, raw and scaled to the
    nominal machine speed (see ``Scaler``)."""

    def __init__(self, n_tasks: int):
        self.times: list[list[float]] = [[] for _ in range(n_tasks)]
        self.scaled: list[list[float]] = [[] for _ in range(n_tasks)]
        self.bad: set[int] = set()  # tasks that failed in some pass
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def busy_s(self) -> float:
        return sum(map(sum, self.times))

    @staticmethod
    def best(times: list[list[float]]) -> list[float]:
        """Each task's fastest time over the passes: the work is
        deterministic, and a slow spell of the machine only adds time."""
        return [min(t) for t in times if t]


class Scaler:
    """Scales task times by CAL_REF_S over the calibration loop's time around
    them. The shared host switches between speed states every few seconds,
    for spells that can cover a whole run; the calibration loop slows down
    with it, so scaled times compare across runs where raw times do not."""

    def __init__(self):
        self.last = calibrate()
        self.pending: list[tuple[Results, int, float]] = []
        self.since = 0.0

    def add(self, results: Results, i: int, raw: float) -> None:
        self.pending.append((results, i, raw))
        self.since += raw
        if self.since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        for results, i, raw in self.pending:
            results.scaled[i].append(raw * factor)
        self.pending.clear()
        self.since = 0.0
        self.last = now


def run_task(i: int, task, deadline_s: float, results: Results) -> float:
    err = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        err = f"deadline {deadline_s:g} s"
    except Exception as exc:  # noqa: BLE001 - any raise is a failed task
        err = f"raised {type(exc).__name__}: {exc}"
    raw = time.perf_counter() - start
    results.times[i].append(raw)
    results.attempted += 1
    if err is None:
        try:
            task.check(out)
        except (oracle.CheckError, LookupError, TypeError, ValueError) as exc:
            err = f"check: {exc}"
    if err is not None:
        results.failed += 1
        results.bad.add(i)
        key = f"{task.label}: {err.splitlines()[0][:160]}"
        results.failures[key] = results.failures.get(key, 0) + 1
    return raw


def run_passes(wl, seconds: float, max_passes: int | None = None, tracer=None) -> tuple[Results, int]:
    """Whole passes over the task list: ``max_passes`` of them, or else at
    least MIN_PASSES and until the summed task time reaches ``seconds``.
    Returns the results and the number of passes."""
    results = Results(len(wl.tasks))
    scaler = Scaler()
    wall0 = time.perf_counter()
    passes = 0
    while True:
        for i, task in enumerate(wl.tasks):
            if time.perf_counter() - wall0 > HARD_STOP_S:
                scaler.flush()
                return results, passes
            if tracer is not None:
                tracer.task = f"{passes}:{i}"
            scaler.add(results, i, run_task(i, task, wl.deadline_s, results))
        scaler.flush()
        passes += 1
        if max_passes is not None:
            if passes >= max_passes:
                return results, passes
        elif passes >= MIN_PASSES and results.busy_s() >= seconds:
            return results, passes


def setup(workload: str, seed: int, workdir: str):
    """Import, generate the inputs and warm up on a small pass; returns the
    package, the workload and the warm-up results."""
    pkg = import_package()
    wl = workloads.BUILDERS[workload](random.Random(seed), pkg, workdir, False)
    warm = workloads.BUILDERS[workload](random.Random(WARMUP_SEED), pkg,
                                        os.path.join(workdir, "warm"), True)
    warm_results, _ = run_passes(warm, 0.0, max_passes=1)
    return pkg, wl, warm_results


def digest(wl) -> str:
    h = hashlib.sha256()
    for text in wl.inputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cbsbounds")):
        print(f"error: no package source at {SRC}/cbsbounds", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        os.makedirs(os.path.join(workdir, "warm"), exist_ok=True)
        before = calibrate()
        t0 = time.perf_counter()
        pkg, wl, warm = setup(args.workload, args.seed, workdir)
        raw = time.perf_counter() - t0
        setup_times.append(raw * CAL_REF_S / ((before + calibrate()) / 2))
    print(f"workload {wl.name} seed {args.seed}: {len(wl.tasks)} tasks per pass, "
          f"inputs sha256 {digest(wl)}")

    if args.trace:
        untraced, _ = run_passes(wl, 0.0, max_passes=1)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            results, _ = run_passes(wl, 0.0, max_passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"spans-{wl.name}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        values = tracer.metrics(results.busy_s())
        # on scaled times, so that a change of machine speed between the two
        # passes does not read as tracing overhead
        values["trace.overhead_frac"] = (
            sum(map(sum, results.scaled)) / sum(map(sum, untraced.scaled)) - 1.0
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
        for name, unit, _ in tracing.PER_LAYER:
            print(f"{name} = {values[name]:.6g} {unit}")
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        results.failures.update({f"untraced {k}": v for k, v in untraced.failures.items()})
        attempted = results.attempted + untraced.attempted
        failed = results.failed + untraced.failed
    else:
        results, passes = run_passes(wl, args.seconds)
        n = len(wl.tasks)
        ok = n - len(results.bad)
        values = {}
        for scale, times in (("nominal", results.scaled), ("raw", results.times)):
            best = results.best(times)
            good = sum(t for i, t in enumerate(best) if i not in results.bad)
            p_tail, beyond = tail(best, wl.tail_pct)
            note = f"{scale}; n={n} tasks, each the best of {passes} passes"
            values[scale] = {
                "tasks_per_s": (ok / good if good else 0.0, "1/s",
                                f"{ok} correct tasks in {good:.4f} s, {note}"),
                "task_s_p50": (statistics.median(best), "s", f"median, {note}"),
                "task_s_p90": (p_tail, "s", f"p{wl.tail_pct}, {note}, {beyond} beyond"),
            }
        values = values["nominal"] | {f"raw {k}": v for k, v in values["raw"].items()}
        values["setup_s"] = (statistics.median(setup_times), "s",
                             f"nominal; median of n={len(setup_times)} set-ups")
        values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MiB", "n=1 process")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()
                   if not name.startswith("raw ")}
        for name, (v, u, note) in values.items():
            print(f"{name} = {v:.6g} {u} ({note})")
        attempted, failed = results.attempted, results.failed

    results.failures.update({f"warm-up {k}": v for k, v in warm.failures.items()})
    failed_total = failed + warm.failed
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} tasks; "
          f"{warm.failed} of {warm.attempted} warm-up tasks failed)")
    for reason, count in sorted(results.failures.items()):
        print(f"  failed x{count}: {reason}")
    print(json.dumps({
        "correct": failed_total == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
