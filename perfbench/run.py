"""The repository's benchmark: one workload, measured end to end or by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-quick --seed 0 --seconds 10 --trace 0

Workloads: ``sweep-quick``, ``table4``, ``kernels``, ``serve-overload``
(see ``perfbench/README.md``).  Each measurement runs in a fresh
interpreter (``perfbench/worker.py``) with one caller, ``jobs=1``, one
BLAS thread, a cold in-process memo, the shared memo tier off and the
program's span tracer off.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (the median
of five fresh interpreters spread across the run, the first discarded
run aside), ``wall_s`` (the median pass), ``peak_rss_mb`` and
``paper_log_err``.  Both times are in reference seconds: each set-up
and each pass is scaled by the ``probe.py`` runs on both sides of it,
so that the shared host's changing speed cancels out.  ``--trace 1``
runs every pass untraced and then traced in one interpreter, and
prints the per-layer metrics.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
Exit status 0 means the run completed, whether or not ``correct``;
2 means bad arguments or a tree it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, UNATTRIBUTED  # noqa: E402

#: every run ends within this many seconds of starting
DEADLINE_S = 170.0

#: fresh set-up interpreters before and after the measured one
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 2, 2

#: seconds ``probe.py`` takes on the reference host, a shared 2-vCPU
#: 2.1 GHz Xeon VM (the median of its probes); ``setup_s`` and
#: ``wall_s`` are in these reference seconds
PROBE_REF_S = 0.250

#: nominal seconds of one pass; ``--seconds`` fixes the pass count
NOMINAL_PASS_S = {"sweep-quick": 20.0, "table4": 20.0, "kernels": 3.0, "serve-overload": 0.8}
WORKLOADS = tuple(NOMINAL_PASS_S)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "paper_log_err": "ln"}

EXPERIMENTS = ("fig4", "fig5", "fig6", "table1", "fig17", "fig18", "table2", "fig19",
               "table3", "table4", "fig20", "ablations", "sensitivity")
MEMO_REGIONS = ("stats", "latency", "suite", "trace", "plan", "problem", "format")
SIM_MODES = ("dense-float", "dense-half", "sparse-half")
SIM_TERMS = ("qk", "softmax", "av", "others", "gemm")
SIDE_COUNTS = ("claims.reproduced", "serving.batches", "serving.completed", "serving.shed",
               "serving.retries", "serving.hedges")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for time_metric, calls_metric in LAYER_METRICS.values():
        units[time_metric] = "s"
        if calls_metric:
            units[calls_metric] = "count"
    units.update({f"experiment.{e}_s": "s" for e in EXPERIMENTS})
    for region in MEMO_REGIONS:
        units[f"memo.{region}.hits"] = "count"
        units[f"memo.{region}.misses"] = "count"
    units["memo.hit_ratio"] = "ratio"
    units.update({f"sim.{m}.{t}_us": "us" for m in SIM_MODES for t in SIM_TERMS})
    units.update({name: "count" for name in SIDE_COUNTS})
    units.update({"traced.wall_s": "s", "unattributed_s": "s",
                  "layers.attributed_pct": "%", "trace_overhead_pct": "%"})
    return units


def pinned_env() -> dict:
    """The environment every worker runs in: no inherited REPRO_* gate,
    one BLAS/OpenMP thread, the shared memo tier and span tracer off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "REPRO_MEMO_SHARED": "0", "REPRO_TRACE": "0",
        "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
    })
    return env


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, passes: int) -> None:
        self.workload, self.seed, self.passes = workload, seed, passes
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = pinned_env()

    def _exec(self, script: str, *args: str) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / script), *args, repr(t0)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=str(ROOT), stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{script} overran the {DEADLINE_S:.0f}s budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            raise BenchError(f"{script} {' '.join(args)} exited with status {proc.returncode}")
        return json.loads(lines[-1])

    def spawn(self, mode: str) -> dict:
        return self._exec("worker.py", self.workload, str(self.seed), str(self.passes), mode)

    def probe(self) -> float:
        return self._exec("probe.py")["probe_s"]


def reference_s(host_s: float, before, after) -> float:
    """``host_s`` scaled to the reference host by the probes taken just
    before and just after it, each side weighted alike."""
    speed = (statistics.median(before) + statistics.median(after)) / 2
    return host_s * PROBE_REF_S / speed


def end_to_end(r: Runner) -> dict:
    r.spawn("setup")  # discarded: compiles bytecode and fills the page cache
    samples = []  # (set-up seconds, the probes before it, the probes after it)

    def sample_setups(count: int, before: float) -> float:
        for _ in range(count):
            setup_s = r.spawn("setup")["setup_s"]
            after = r.probe()
            samples.append((setup_s, [before], [after]))
            before = after
        return before

    before = sample_setups(SETUP_SAMPLES_BEFORE, r.probe())
    main = r.spawn("run")
    points = main["probes"]
    samples.append((main["setup_s"], [before], points[0]))
    sample_setups(SETUP_SAMPLES_AFTER, r.probe())
    passes, k = [], 0
    for segments in main["segments"]:
        passes.append(sum(reference_s(s, points[k + j], points[k + j + 1])
                          for j, s in enumerate(segments)))
        k += len(segments)
    values = {
        "setup_s": statistics.median(reference_s(*sample) for sample in samples),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": main["peak_rss_mb"],
        "paper_log_err": main["paper_log_err"],
    }
    print(f"host seconds: set-up {', '.join(f'{s[0]:.4f}' for s in samples)}; probes "
          f"around them {', '.join(f'{s[1][0]:.4f}/{s[2][-1]:.4f}' for s in samples)}; passes "
          f"{', '.join(f'{s:.4f}' for s in main['pass_s'])}; segments "
          f"{'; '.join(', '.join(f'{s:.4f}' for s in segs) for segs in main['segments'])}; "
          f"probes between segments "
          f"{'; '.join(', '.join(f'{p:.4f}' for p in point) for point in points)}; "
          f"results digest: {main['digest']}", file=sys.stderr)
    return {"errors": main["errors"], "attempted": main["attempted"], "failed": main["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def per_layer(r: Runner) -> dict:
    r.spawn("setup")  # discarded, as in the untraced run
    traced = r.spawn("traced")
    n = r.passes
    values = {}
    for layer, (time_metric, calls_metric) in LAYER_METRICS.items():
        values[time_metric] = traced["self_s"].get(layer, 0.0) / n
        if calls_metric:
            values[calls_metric] = traced["calls"].get(layer, 0) / n
    for e in EXPERIMENTS:
        values[f"experiment.{e}_s"] = traced["self_s"].get(f"experiment.{e}", 0.0) / n
    hits = misses = 0
    for region in MEMO_REGIONS:
        h, m = traced["memo"].get(region, (0, 0))
        values[f"memo.{region}.hits"], values[f"memo.{region}.misses"] = h / n, m / n
        hits, misses = hits + h, misses + m
    values["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(traced["sim"])
    values.update({k: float(traced["extra"].get(k, 0.0)) for k in SIDE_COUNTS})

    wall = sum(traced["pass_s"]) / n
    named = sum(s for layer, s in traced["self_s"].items() if layer != UNATTRIBUTED) / n
    values["traced.wall_s"] = wall
    values["unattributed_s"] = wall - named
    values["layers.attributed_pct"] = 100.0 * named / wall
    values["trace_overhead_pct"] = 100.0 * (statistics.median(traced["pass_s"])
                                            / statistics.median(traced["base_s"]) - 1.0)

    errors = list(traced["errors"])
    errors += [f"wrapper {w} never fired on {r.workload}" for w in traced["unfired"]]
    if named > wall * (1 + 1e-9):
        errors.append(f"layer self times add to {named:.6f}s, more than the {wall:.6f}s wall")
    for name, calls in sorted(traced["fired"].items()):
        print(f"wrapper {name}: {calls} calls", file=sys.stderr)
    print(f"results digest: {traced['digest']}", file=sys.stderr)
    units = per_layer_units()
    return {"errors": errors, "attempted": traced["attempted"], "failed": traced["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in NOMINAL_PASS_S:
        print(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    runner = Runner(args.workload, args.seed, passes)
    try:
        out = per_layer(runner) if args.trace else end_to_end(runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for err in out["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not out["errors"] and out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
