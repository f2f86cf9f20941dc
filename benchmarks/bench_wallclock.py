"""Wall-clock benchmark of the simulator itself.

Times the quick ``run_all`` sweep twice in fresh subprocesses —

* baseline: serial, memoisation off (``REPRO_MEMO=0``),
* fast: the ``--jobs`` path with memoisation on —

checks that both produce identical experiment outputs, and appends a
record to ``BENCH_simulator.json`` so future changes can be compared
against the trajectory.  Exits nonzero if the outputs differ.

Usage::

    python benchmarks/bench_wallclock.py [--jobs N] [--only a,b,...]
                                         [--out BENCH_simulator.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO / "BENCH_simulator.json"


def _worker(jobs: int, names: list[str], dump_path: str) -> None:
    """Run the sweep in-process and dump rows/notes + timing as JSON."""
    from repro.experiments.runner import run_all

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        results = run_all(quick=True, only=names, jobs=jobs)
    seconds = time.perf_counter() - t0
    payload = {
        "seconds": seconds,
        "results": {
            name: {"rows": res.rows, "notes": {k: str(v) for k, v in res.notes.items()}}
            for name, res in results.items()
        },
    }
    Path(dump_path).write_text(json.dumps(payload))


def _measure(
    memo_on: bool, jobs: int, names: list[str], dump_path: Path, repeats: int
) -> tuple[float, dict]:
    """Best-of-N wall clock (the minimum estimates the uncontended time
    on a shared box) plus the run outputs, checked stable across repeats."""
    runs = [_spawn(memo_on, jobs, names, dump_path) for _ in range(repeats)]
    for r in runs[1:]:
        if r["results"] != runs[0]["results"]:
            raise SystemExit("nondeterministic outputs across repeated runs")
    return min(r["seconds"] for r in runs), runs[0]["results"]


def _spawn(memo_on: bool, jobs: int, names: list[str], dump_path: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_MEMO"] = "1" if memo_on else "0"
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", str(dump_path), "--jobs", str(jobs), "--only", ",".join(names),
    ]
    subprocess.run(cmd, check=True, env=env, cwd=str(REPO))
    return json.loads(dump_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the simulator's own wall clock")
    ap.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1),
                    help="worker processes for the fast configuration")
    ap.add_argument("--only", type=str, default="",
                    help="comma-separated experiment subset "
                         "(default: all except table4)")
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="trajectory JSON to append to")
    ap.add_argument("--repeats", type=int, default=2,
                    help="timed runs per configuration; the minimum is kept")
    ap.add_argument("--worker", type=str, default="",
                    help=argparse.SUPPRESS)  # internal: dump path for one timed run
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.runner import EXPERIMENTS

    # table4 is excluded from the default sweep: its cost is the 6-epoch
    # NumPy training run, which the analytic fast paths measured here
    # (batching, memoisation, --jobs) do not reach.  Its measure is
    # `python3 perfbench/run.py --workload table4` (docs/PERFMODEL.md).
    names = [s.strip() for s in args.only.split(",") if s.strip()] or [
        n for n in EXPERIMENTS if n != "table4"
    ]
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        print(
            f"unknown experiments: {unknown}; valid choices: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    if args.worker:
        _worker(args.jobs, names, args.worker)
        return 0

    tmp = REPO / "benchmarks"
    base_s, base_results = _measure(
        False, 1, names, tmp / ".bench_base.json", args.repeats
    )
    fast_s, fast_results = _measure(
        True, args.jobs, names, tmp / ".bench_fast.json", args.repeats
    )
    (tmp / ".bench_base.json").unlink()
    (tmp / ".bench_fast.json").unlink()

    identical = base_results == fast_results
    speedup = base_s / fast_s if fast_s else float("inf")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "experiments": names,
        "jobs": args.jobs,
        "repeats": args.repeats,
        "baseline_serial_memo_off_s": round(base_s, 2),
        "fast_jobs_memo_on_s": round(fast_s, 2),
        "speedup": round(speedup, 2),
        "outputs_identical": identical,
    }

    from repro.benchrecords import append_bench_record

    append_bench_record(Path(args.out), record)

    print(json.dumps(record, indent=2))
    if not identical:
        print("ERROR: outputs differ between the two configurations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
