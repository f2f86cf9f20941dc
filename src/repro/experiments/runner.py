"""Run-all CLI: regenerate every table and figure.

``repro-experiments [--full] [--only fig17,table2,...] [--jobs N]
[--out DIR]`` prints each :class:`ExperimentResult` and optionally
writes one text file per artifact.  ``--jobs N`` fans the experiments
out over N worker processes (results are printed in registry order
either way); each line reports the wall time and the memo-cache hit
rate the experiment saw.

Resilience (see ``docs/ROBUSTNESS.md``):

* A failing experiment no longer aborts the sweep: the remaining
  experiments finish, every completed artifact is written, a failure
  report is printed, and the process exits 1.  With ``--jobs 2`` or
  more each experiment runs in a worker process, so one that kills its
  worker fails alone.
* ``--out DIR`` persists each artifact *the moment its experiment
  finishes* (any ``--jobs``), so a crash late in the sweep cannot lose
  early finishers' files.
* ``--out DIR --resume`` checkpoints into ``DIR/manifest.json`` (per
  experiment: config hash, artifact checksum, wall time and scoped memo
  counters) and skips experiments whose checkpoint matches the
  requested configuration, so a killed ``--full`` sweep restarts where
  it left off.  ``--verify`` only sees the experiments that actually
  ran in this invocation.

Scale-out (see ``src/repro/experiments/sharding.py``):

* ``--shard I/N --out DIR_I`` runs one deterministic slice of the
  sweep: every ``N``-th requested experiment by position, each run
  whole.  The manifest gains a ``__shard__`` entry.
* ``python -m repro.cli merge DIR_0 .. DIR_N-1 --out DIR`` verifies and
  combines N shard outputs into one full sweep result — mismatched
  shard configurations exit 2, artifact checksums are re-verified
  before anything is trusted.
* With ``REPRO_MEMO_SHARED=1`` all invocations share the file-backed
  memo tier (:mod:`repro.perfmodel.sharedmemo`), so shard workers hit
  entries their siblings already computed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import envgates
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..perfmodel import memo
from ..perfmodel import sharedmemo
from .charts import render_fig17, render_fig20
from .claims import verify
from .common import format_table
from .pool import INTERRUPTED, TaskOutcome, resilient_map
from .sharding import SHARD_KEY, parse_shard
from . import sharding
from . import (
    ablations,
    fig4_fine_grained,
    fig5_gemm_vs_spmm,
    fig6_blocked_ell,
    fig17_spmm_speedup,
    fig18_l2_traffic,
    fig19_sddmm_speedup,
    fig20_attention_latency,
    sensitivity,
    table1_stalls,
    table2_guidelines_spmm,
    table3_guidelines_sddmm,
    table4_transformer,
)

__all__ = ["EXPERIMENTS", "main", "run_all", "SweepFailure"]

EXPERIMENTS: Dict[str, Callable] = {
    "fig4": fig4_fine_grained.run,
    "fig5": fig5_gemm_vs_spmm.run,
    "fig6": fig6_blocked_ell.run,
    "table1": table1_stalls.run,
    "fig17": fig17_spmm_speedup.run,
    "fig18": fig18_l2_traffic.run,
    "table2": table2_guidelines_spmm.run,
    "fig19": fig19_sddmm_speedup.run,
    "table3": table3_guidelines_sddmm.run,
    "table4": table4_transformer.run,
    "fig20": fig20_attention_latency.run,
    "ablations": ablations.run,
    "sensitivity": sensitivity.run,
}

#: experiments whose run() accepts the quick flag
_QUICK_AWARE = {"fig4", "fig6", "fig17", "fig19", "table4", "sensitivity"}

#: experiments whose run() accepts the trace cross-check flag
_TRACE_AWARE = {"fig5", "fig18"}

#: chaos test hook (CI + tests only): ``REPRO_CHAOS=crash:fig5`` kills
#: the worker mid-experiment with os._exit, ``raise:NAME`` raises — both
#: scoped to the named experiment.


class SweepFailure(RuntimeError):
    """Raised by :func:`run_all` after a degraded sweep: every healthy
    experiment completed and was emitted; ``results`` holds them and
    ``failures`` the failed outcomes (name attached)."""

    def __init__(self, results: Dict[str, object],
                 failures: List[Tuple[str, TaskOutcome]],
                 interrupted: bool = False) -> None:
        names = ", ".join(n for n, _ in failures) or "interrupted"
        super().__init__(f"sweep degraded: {names}")
        self.results = results
        self.failures = failures
        self.interrupted = interrupted


def _chaos(name: str) -> None:
    spec = envgates.raw("REPRO_CHAOS")
    if not spec:
        return
    action, _, target = spec.partition(":")
    if target != name:
        return
    if action == "crash":
        os._exit(13)
    elif action == "raise":
        raise RuntimeError(f"chaos hook: injected failure in {name}")


def _obs_payload(name: str, dt: float,
                 scope: Dict[str, Tuple[int, int]],
                 before: Dict[str, Tuple[int, int]],
                 before_shared: Dict[str, Tuple[int, int]]) -> Dict[str, object]:
    """Per-experiment observability payload (plain dicts, picklable).

    Always carries the scoped memo counters the hit-rate line prints;
    when observability is on it also records the raw memo deltas —
    local tier as ``memo.<region>.*``, shared tier as
    ``memo.shared.<region>.*`` — into the metrics registry and ships
    the worker's drained spans/metrics home so the parent can stitch
    one timeline (the pool-mode half of ``docs/OBSERVABILITY.md``).
    """
    if obs_metrics.enabled():
        for region, (h, m) in memo.counters().items():
            bh, bm = before.get(region, (0, 0))
            if h - bh:
                obs_metrics.counter_add(f"memo.{region}.hits", h - bh)
            if m - bm:
                obs_metrics.counter_add(f"memo.{region}.misses", m - bm)
        for region, (h, m) in sharedmemo.counters().items():
            bh, bm = before_shared.get(region, (0, 0))
            if h - bh:
                obs_metrics.counter_add(f"memo.shared.{region}.hits", h - bh)
            if m - bm:
                obs_metrics.counter_add(f"memo.shared.{region}.misses", m - bm)
        for region, (served, lookups) in scope.items():
            obs_metrics.counter_add(f"memo.scoped.{region}.served", served)
            obs_metrics.counter_add(f"memo.scoped.{region}.lookups", lookups)
        obs_metrics.gauge_set(f"experiment.{name}.seconds", round(dt, 4))
        obs_metrics.observe("experiment.seconds", dt)
    return {
        "memo_scope": scope,
        "spans": obs_tracing.drain() if obs_tracing.enabled() else [],
        "metrics": obs_metrics.drain() if obs_metrics.enabled() else None,
    }


def _run_one(task: Tuple[str, bool, bool, bool]):
    """Run one experiment (module-level so worker processes can unpickle it).

    Returns ``(name, result, seconds, obs_payload)``; the payload's
    ``memo_scope`` counters are scoped to this run (they count the
    lookups that happen, so what earlier work left in the cache can
    change them — see :func:`memo.scope_begin`), and its spans/metrics
    are the worker's drained observability state when tracing is
    enabled.
    """
    name, quick, trace, obs_on = task
    if obs_on:
        obs_tracing.enable()
    _chaos(name)
    fn = EXPERIMENTS[name]
    kwargs = {}
    if name in _QUICK_AWARE:
        kwargs["quick"] = quick
    if trace and name in _TRACE_AWARE:
        kwargs["trace"] = True
    memo.scope_begin()
    before = memo.counters()
    before_shared = sharedmemo.counters()
    t0 = time.perf_counter()
    with obs_tracing.span(f"experiment.{name}", quick=bool(quick)):
        res = fn(**kwargs)
    dt = time.perf_counter() - t0
    payload = _obs_payload(name, dt, memo.scope_end(), before, before_shared)
    return name, res, dt, payload


def _render(name: str, res) -> str:
    text = res.to_text()
    if name == "fig17":
        panels = [render_fig17(res.rows, v, 256) for v in (2, 4, 8)]
        text += "\n\n" + "\n\n".join(panels)
    elif name == "fig20":
        seen = sorted({(r["l"], r["k"]) for r in res.rows})
        text += "\n\n" + "\n\n".join(render_fig20(res.rows, l, k) for l, k in seen)
    return text


def _emit(name: str, res, dt: float, payload: Dict[str, object], out_dir: Path | None,
          text: Optional[str] = None, write: bool = True) -> None:
    if text is None:
        text = _render(name, res)
    # the hit-rate line reads the scope counters the metrics registry
    # records (memo.scoped.*): repetition *within* the experiment, so
    # serial and --jobs sweeps print identical numbers
    scope: Dict[str, Tuple[int, int]] = payload.get("memo_scope") or {}
    served = sum(s for s, _ in scope.values())
    lookups = sum(n for _, n in scope.values())
    print(text)
    print(f"  ({dt:.1f}s, memo: {100.0 * memo.hit_rate(served, lookups - served):.0f}% hit, "
          f"{served}/{lookups})\n")
    if write and out_dir is not None:
        _write_artifact(out_dir, name, text)


def _write_artifact(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n")


# --------------------------------------------------------------------- #
# checkpoint manifest (primitives live in sharding.py, shared with the
# shard-merge path)
# --------------------------------------------------------------------- #

def _config_hash(name: str, quick: bool, trace: bool) -> str:
    """Hash of everything that shapes an experiment's output (see
    :func:`sharding.config_hash`)."""
    return sharding.config_hash(name, quick, bool(trace and name in _TRACE_AWARE))


def _checkpoint(out_dir: Path, manifest: Dict[str, dict], name: str,
                config: str, text: str, seconds: float,
                scope: Dict[str, Tuple[int, int]]) -> None:
    """Record one completed experiment — config hash, artifact
    checksum, wall time and scoped memo counters — and rewrite the
    manifest atomically (write-then-rename, so a kill mid-write leaves
    the old manifest, never a torn one)."""
    manifest[name] = {
        "config": config,
        "checksum": sharding.text_checksum(text),
        "seconds": round(seconds, 3),
        "memo_scope": {region: {"served": s, "lookups": n}
                       for region, (s, n) in sorted(scope.items())},
    }
    sharding.write_manifest(out_dir, manifest)


def _resume_skips(names: List[str], quick: bool, trace: bool,
                  out_dir: Path, manifest: Dict[str, dict]) -> List[str]:
    """Names whose checkpoint matches the requested configuration *and*
    whose artifact file still exists with the recorded checksum."""
    skips = []
    for name in names:
        entry = manifest.get(name)
        if not isinstance(entry, dict):
            continue
        if entry.get("config") != _config_hash(name, quick, trace):
            continue  # stale: quick/trace changed since checkpoint
        try:
            sharding.read_artifact(out_dir, name, entry)
        except sharding.MergeError:
            continue  # artifact missing, edited or corrupted on disk: rerun
        skips.append(name)
    return skips


# --------------------------------------------------------------------- #
# sweep driver
# --------------------------------------------------------------------- #
def _failure_report(failures: List[Tuple[str, TaskOutcome]]) -> str:
    rows = [
        {
            "Experiment": name,
            "Status": out.status,
            "Error": (out.error or "-")[:60],
        }
        for name, out in failures
    ]
    report = "== failure report ==\n" + format_table(rows)
    tracebacks = [
        f"\n-- {name} ({out.status}) --\n{out.traceback.rstrip()}"
        for name, out in failures
        if out.traceback
    ]
    return report + "".join(tracebacks)


def run_all(
    quick: bool = True,
    only=None,
    out_dir: Path | None = None,
    jobs: int = 1,
    trace: bool = False,
    resume: bool = False,
    shard: Optional[object] = None,
) -> Dict[str, object]:
    """Run the selected experiments, print (and optionally save) each.

    ``only`` must name registered experiments — unknown names raise
    :class:`ValueError` (listing the valid choices) instead of being
    silently dropped; so do ``jobs < 0`` and ``--resume`` without an
    output directory.  ``jobs > 1`` runs the experiments in worker
    processes; outputs still appear in registry order.  ``trace`` adds
    the trace-simulator cross-check columns to the trace-aware
    experiments (fig5, fig18).

    The sweep is resilient: a failing experiment is recorded, the rest
    complete and are emitted (artifacts written as each finishes), and
    a :class:`SweepFailure` carrying the partial results is raised after
    the failure report prints.  ``resume`` skips experiments already
    checkpointed in ``out_dir/manifest.json`` under the same
    configuration.

    ``shard`` (an ``"I/N"`` string or ``(index, total)`` tuple) runs one
    deterministic slice of the sweep: the experiments
    :func:`sharding.assign_wholesale` gives it, each run whole.  A
    sharded run needs ``out_dir`` (the shard-scoped manifest is what
    the merge consumes).
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if resume and out_dir is None:
        raise ValueError("--resume needs --out DIR (checkpoints live in the manifest there)")
    shard_t = parse_shard(shard) if isinstance(shard, str) else shard
    if shard_t is not None and out_dir is None:
        raise ValueError("--shard needs --out DIR (the merge consumes the shard manifests)")
    if only:
        unknown = sorted(set(only) - set(EXPERIMENTS))
        if unknown:
            raise ValueError(
                f"unknown experiments: {unknown}; valid choices: {sorted(EXPERIMENTS)}"
            )
    names = list(EXPERIMENTS) if not only else [n for n in EXPERIMENTS if n in set(only)]
    requested = list(names)

    manifest: Dict[str, dict] = sharding.load_manifest(out_dir) if out_dir is not None else {}
    if shard_t is not None:
        names = sharding.assign_wholesale(names, shard_t)
        manifest[SHARD_KEY] = {
            "index": shard_t[0], "total": shard_t[1],
            "quick": bool(quick), "trace": bool(trace),
            "experiments": requested,
        }
        # publish the shard identity up front so a merge attempt against
        # an unfinished (even empty) shard fails with a clear message
        sharding.write_manifest(out_dir, manifest)
        print(f"shard {shard_t[0]}/{shard_t[1]}: "
              f"{', '.join(names) or '(no experiments assigned)'}\n")
    if resume:
        skips = _resume_skips(names, quick, trace, out_dir, manifest)
        for name in skips:
            print(f"{name}: skipped (checkpoint matches, artifact verified)")
        if skips:
            print()
        names = [n for n in names if n not in set(skips)]
    if not names:
        return {}

    # each experiment runs serially inside its worker; the pool
    # parallelises across experiments
    obs_on = obs_tracing.enabled()
    tasks = [(name, quick, trace, obs_on) for name in names]
    results: Dict[str, object] = {}
    rendered: Dict[str, str] = {}

    def on_outcome(out: TaskOutcome) -> None:
        # runs in the scheduler (parent) as each experiment settles:
        # persist the artifact + checkpoint immediately so nothing a
        # later crash does can lose it; worker spans/metrics are
        # stitched into the parent's timeline here (same path whether
        # the experiment ran in-process or in a pool worker)
        if not out.ok:
            return
        name, res, dt, payload = out.result
        obs_tracing.ingest(payload.get("spans") or [])
        obs_metrics.merge(payload.get("metrics"))
        text = rendered[name] = _render(name, res)
        if out_dir is not None:
            _write_artifact(out_dir, name, text)
            _checkpoint(out_dir, manifest, name, _config_hash(name, quick, trace),
                        text, dt, payload.get("memo_scope") or {})

    with obs_tracing.span("run_all", jobs=jobs, quick=bool(quick),
                          experiments=len(tasks)):
        outcomes = resilient_map(_run_one, tasks, jobs=jobs, on_outcome=on_outcome)

    failures: List[Tuple[str, TaskOutcome]] = []
    interrupted = False
    for (name, *_rest), out in zip(tasks, outcomes):
        if out.ok:
            res_name, res, dt, payload = out.result
            results[res_name] = res
            # artifact already written in on_outcome; just print
            _emit(res_name, res, dt, payload, out_dir,
                  text=rendered.get(res_name), write=False)
        elif out.status == INTERRUPTED:
            interrupted = True
        else:
            failures.append((name, out))

    if obs_on and out_dir is not None:
        _write_obs_outputs(out_dir, manifest)

    if failures or interrupted:
        if failures:
            print(_failure_report(failures))
        if interrupted:
            pending = [n for (n, *_rest), o in zip(tasks, outcomes)
                       if o.status == INTERRUPTED]
            print(f"interrupted: {len(results)}/{len(tasks)} experiments completed; "
                  f"pending: {', '.join(pending)}")
        raise SweepFailure(results, failures, interrupted=interrupted)
    return results


def _write_obs_outputs(out_dir: Path, manifest: Dict[str, dict]) -> None:
    """Persist the metrics snapshot next to the artifacts and fold it
    into the checkpoint manifest (under ``__metrics__``, which the
    resume logic ignores — only per-experiment dict entries with a
    ``config`` key participate in skip decisions)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    obs_metrics.write_json(out_dir / "metrics.json")
    manifest["__metrics__"] = obs_metrics.snapshot()
    sharding.write_manifest(out_dir, manifest)


def main(argv=None) -> int:
    """``repro-experiments`` entry point."""
    ap = argparse.ArgumentParser(description="Regenerate the paper's tables and figures")
    ap.add_argument("--full", action="store_true", help="use the full DLMC-style suite")
    ap.add_argument("--only", type=str, default="", help="comma-separated experiment names")
    ap.add_argument("--jobs", type=int, default=1,
                    help="fan the experiments out over N worker processes")
    ap.add_argument("--out", type=str, default="", help="directory for per-artifact text files")
    ap.add_argument("--resume", action="store_true",
                    help="skip experiments already checkpointed in --out's manifest")
    ap.add_argument("--shard", type=str, default="",
                    help="run slice I/N of the sweep (0-based; every N-th "
                         "experiment by position, each run whole); needs --out")
    ap.add_argument("--trace", action="store_true",
                    help="add the cache-simulator trace cross-check columns (fig5, fig18)")
    ap.add_argument("--trace-out", type=str, default="",
                    help="enable observability and write a Chrome trace-event "
                         "timeline (plus a sibling metrics.json) to PATH")
    ap.add_argument("--verify", action="store_true",
                    help="judge every registered paper claim after the runs")
    args = ap.parse_args(argv)
    only = [s.strip() for s in args.only.split(",") if s.strip()] or None
    out = Path(args.out) if args.out else None
    # --trace-out traces this sweep only: the caller's setting comes back
    previous = obs_tracing.set_enabled(True) if args.trace_out else None
    failure: Optional[SweepFailure] = None
    try:
        results = run_all(quick=not args.full, only=only, out_dir=out, jobs=args.jobs,
                          trace=args.trace, resume=args.resume,
                          shard=args.shard or None)
    except ValueError as exc:
        print(exc)
        return 2
    except SweepFailure as exc:
        failure, results = exc, exc.results
    finally:
        if args.trace_out:
            obs_tracing.set_enabled(previous)
    if args.trace_out:
        trace_path = Path(args.trace_out)
        obs_tracing.export_chrome_trace(trace_path)
        obs_metrics.write_json(trace_path.with_name(
            trace_path.stem + ".metrics.json"))
        print(f"trace written to {trace_path} "
              f"(load in Perfetto / chrome://tracing)")
    if failure is not None and failure.interrupted and not failure.failures:
        return 130
    if args.verify:
        verdicts = verify(results)
        print("\n== paper-claim verification ==")
        print(format_table([v.as_row() for v in verdicts]))
        if any(v.verdict == "failed" for v in verdicts):
            return 1
    return 1 if failure is not None else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
