"""Overhead benchmark for the memo store's checksums.

What does checksumming the memo store cost?  Answered with
fresh-subprocess best-of-N timings: the fig17 quick sweep (memo-heavy:
every ablation re-derives stats from the same cache) runs with
``REPRO_MEMO_CHECKSUM`` off and on; the budget is <5% overhead and the
two runs must produce identical outputs.

A record is appended to ``BENCH_simulator.json``.  Exits nonzero if
the outputs differ or the checksum overhead blows the budget.

Usage::

    python benchmarks/bench_resilience.py [--smoke] [--repeats N]
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

#: checksum-overhead budget on the memo-heavy sweep (fraction)
OVERHEAD_BUDGET = 0.05


def _worker(dump_path: str) -> None:
    """One timed run in this process; dumps timing + outputs as JSON."""
    from repro.experiments.runner import run_all

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        results = run_all(quick=True, only=["fig17"])
    payload = {
        name: {"rows": res.rows, "notes": {k: str(v) for k, v in res.notes.items()}}
        for name, res in results.items()
    }
    seconds = time.perf_counter() - t0
    Path(dump_path).write_text(json.dumps({"seconds": seconds, "payload": payload}))


def _spawn(checksum: bool, dump_path: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_MEMO"] = "1"
    env["REPRO_MEMO_CHECKSUM"] = "1" if checksum else "0"
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(dump_path)]
    subprocess.run(cmd, check=True, env=env, cwd=str(REPO))
    return json.loads(dump_path.read_text())


def _measure(checksum: bool, dump_path: Path, repeats: int) -> tuple[float, dict]:
    runs = [_spawn(checksum, dump_path) for _ in range(repeats)]
    for r in runs[1:]:
        if r["payload"] != runs[0]["payload"]:
            raise SystemExit("nondeterministic outputs across repeated sweep runs")
    return min(r["seconds"] for r in runs), runs[0]["payload"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the memo checksums' overhead")
    ap.add_argument("--smoke", action="store_true",
                    help="single repeat, no trajectory append (CI)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed runs per configuration; the minimum is kept")
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="trajectory JSON to append to")
    ap.add_argument("--worker", type=str, default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    if args.worker:
        _worker(args.worker)
        return 0

    repeats = 1 if args.smoke else args.repeats
    tmp = REPO / "benchmarks" / ".bench_resilience.json"

    plain_s, plain_out = _measure(False, tmp, repeats)
    sum_s, sum_out = _measure(True, tmp, repeats)
    tmp.unlink()

    identical = plain_out == sum_out
    overhead = (sum_s - plain_s) / plain_s if plain_s else 0.0
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "bench": "resilience",
        "sweep": "fig17 quick",
        "repeats": repeats,
        "memo_checksum_off_s": round(plain_s, 3),
        "memo_checksum_on_s": round(sum_s, 3),
        "checksum_overhead_pct": round(100.0 * overhead, 2),
        "outputs_identical": identical,
    }
    print(json.dumps(record, indent=2))

    if not args.smoke:
        from repro.benchrecords import append_bench_record

        append_bench_record(Path(args.out), record)

    if not identical:
        print("ERROR: outputs differ with checksumming on vs off", file=sys.stderr)
        return 1
    if overhead > OVERHEAD_BUDGET:
        print(f"ERROR: checksum overhead {100 * overhead:.1f}% exceeds "
              f"{100 * OVERHEAD_BUDGET:.0f}% budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
