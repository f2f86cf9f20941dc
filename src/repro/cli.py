"""``repro-bench``: benchmark the kernels on a user-supplied matrix.

Reads a DLMC ``.smtx`` topology (or generates a synthetic one), builds
the §7.1.1 benchmarks at the requested vector length, and prints a
comparison table of every applicable kernel against the dense cuBLAS
analog — the per-matrix version of Figures 17/19.

The subcommands live in one table, ``_SUBCOMMANDS``: each name maps to
its description, the function that adds its arguments, and the handler
that runs it.  :func:`main` parses once and turns any ``ValueError`` a
handler raises into ``error: ...`` on stderr and exit 2.

* ``sanitize`` runs the kernel sanitizer (:mod:`repro.sanitizer`) over
  any kernel case x problem suite;
* ``faults`` runs a seeded SDC fault-injection campaign
  (:mod:`repro.faults`) measuring the sanitizer's detection coverage;
* ``obs`` runs experiments under the observability layer
  (:mod:`repro.obs`);
* ``plans`` compiles, validates, and parity-checks the execution plans
  (:mod:`repro.plans`) of every simulated kernel on a seeded problem;
* ``memo`` inspects (and verifies) the shared cross-process memo
  store (:mod:`repro.perfmodel.sharedmemo`), one file per entry;
* ``merge`` combines ``--shard`` sweep outputs into one verified result
  (:mod:`repro.experiments.sharding`);
* ``serve`` runs the multi-tenant serving simulator
  (:mod:`repro.serving`) over a named scenario;
* ``profile`` runs the Nsight-Compute-analog kernel profiler
  (:mod:`repro.profiler`): roofline classification, ranked bottleneck
  attribution, and the exact counter baseline ``--check`` gates on.

Examples
--------
::

    repro-bench --smtx path/to/matrix.smtx --op spmm -V 4 -N 256
    repro-bench --rows 512 --cols 1024 --sparsity 0.9 --op sddmm -V 8 -K 256
    repro-bench --rows 512 --cols 1024 --sparsity 0.9 --op spmm -V 4 --profile
    repro-bench --op spmm --kernel octet --kernel fpu
    python -m repro.cli sanitize --all
    python -m repro.cli sanitize --smoke
    python -m repro.cli sanitize --kernel spmm-octet --suite full
    python -m repro.cli faults --smoke
    python -m repro.cli faults --campaign default --seed 7 -v
    python -m repro.cli obs --only fig17 --trace-out t.json
    python -m repro.cli obs --smoke
    python -m repro.cli plans --parity
    python -m repro.cli plans -V 8 --rows 128 --cols 256 -N 128 -K 128
    python -m repro.cli memo --dir .repro-memo --verify
    python -m repro.cli merge out-shard0 out-shard1 --out out-merged
    python -m repro.cli serve --scenario overload --requests 8000 -v
    python -m repro.cli serve --scenario steady --sweep
    python -m repro.cli serve --smoke
    python -m repro.cli profile
    python -m repro.cli profile --config fig20-k256 -v
    python -m repro.cli profile --diff spmm-octet dense-gemm
    python -m repro.cli profile --smoke --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .datasets.dlmc import generate_topology
from .formats.conversions import blocked_ell_matching, cvse_from_csr_topology
from .formats.cvse import ColumnVectorSparseMatrix
from .formats.io import read_smtx
from .kernels.cusparse import BlockedEllSpmmKernel
from .kernels.gemm import DenseGemmKernel
from .kernels.sddmm_fpu import FpuSddmmKernel
from .kernels.sddmm_octet import OctetSddmmKernel
from .kernels.sddmm_wmma import WmmaSddmmKernel
from .kernels.spmm_fpu import FpuSpmmKernel
from .kernels.spmm_octet import OctetSpmmKernel
from .kernels.spmm_wmma import WmmaSpmmKernel
from .profiler import KernelProfile, derive_profile
from .profiler.report import format_table, guidelines_table

__all__ = ["main", "build_parser", "bench_spmm", "bench_sddmm", "EXIT_CLEAN",
           "EXIT_FINDINGS", "EXIT_USAGE"]

#: bench-table kernel names accepted by ``--kernel`` (per op)
SPMM_BENCH_KERNELS = ("octet", "wmma", "fpu", "blocked-ell")
SDDMM_BENCH_KERNELS = ("reg", "shfl", "arch", "wmma", "fpu")

#: shared exit-code convention for every subcommand: clean, findings
#: (or a failed gate), bad invocation
EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


def _usage_error(exc: object) -> int:
    """The one bad-invocation path every subcommand shares: ``error: ...``
    on stderr (unknown names list the valid choices), exit 2."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _validate_names(names, valid, what: str) -> None:
    """Reject unknown names listing the valid choices (the ``run_all
    --only`` convention)."""
    unknown = sorted(set(names) - set(valid))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}; valid choices: {sorted(valid)}")


def _int_at_least(minimum: int, what: str):
    """argparse ``type=`` for a count flag: an integer >= ``minimum``; any
    other value is a usage error naming the flag (see :func:`main`)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what} integer, got {text}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive")
_non_negative_int = _int_at_least(0, "a non-negative")


def _smoke_gate(name: str, failures: List[str], ok_line: str) -> int:
    """The one ``--smoke`` report: ``<name> smoke FAILED:`` plus one
    ``  - reason`` line per failure on stderr (exit 1), else ``ok_line``."""
    if failures:
        print(f"\n{name} smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return EXIT_FINDINGS
    print(ok_line)
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-bench``."""
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="Compare the paper's kernels on one sparse matrix (simulated V100)",
        exit_on_error=False,
    )
    src = ap.add_argument_group("matrix source")
    src.add_argument("--smtx", type=str, default="", help="DLMC .smtx topology file")
    src.add_argument("--rows", type=_positive_int, default=512, help="synthetic topology rows")
    src.add_argument("--cols", type=_positive_int, default=1024, help="synthetic topology cols")
    src.add_argument("--sparsity", type=float, default=0.9, help="synthetic sparsity")
    src.add_argument("--seed", type=int, default=0)

    ap.add_argument("--op", choices=("spmm", "sddmm"), default="spmm")
    ap.add_argument("-V", "--vector-length", type=int, default=4, choices=(1, 2, 4, 8))
    ap.add_argument("-N", type=_positive_int, default=256, help="dense columns (SpMM)")
    ap.add_argument("-K", type=_positive_int, default=256, help="inner dimension (SDDMM)")
    ap.add_argument("--profile", action="store_true",
                    help="also print the five-guideline profile table")
    ap.add_argument("--kernel", action="append", default=None, metavar="NAME",
                    help="restrict the comparison to these kernels (repeatable); "
                         f"spmm: {SPMM_BENCH_KERNELS}, sddmm: {SDDMM_BENCH_KERNELS}")
    return ap


def _sanitize_args(ap: argparse.ArgumentParser) -> None:
    from .sanitizer import KERNEL_CASES, SUITES

    ap.add_argument("--kernel", action="append", default=None, metavar="NAME",
                    help="kernel case(s) to sanitize (repeatable); "
                         f"choices: {sorted(KERNEL_CASES)}")
    ap.add_argument("--suite", default="default",
                    help=f"problem suite; choices: {sorted(SUITES)}")
    ap.add_argument("--all", action="store_true",
                    help="every kernel case on the 'full' suite")
    ap.add_argument("--smoke", action="store_true",
                    help="every kernel case on the 'smoke' suite (CI)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print per-checker work counters")


def _sanitize(args) -> int:
    """``sanitize`` subcommand: exit 0 on a clean sweep, 1 on findings."""
    from .sanitizer import format_reports, sanitize

    suite = "full" if args.all else "smoke" if args.smoke else args.suite
    reports = sanitize(args.kernel, suite=suite)
    print(format_reports(reports, verbose=args.verbose))
    return EXIT_CLEAN if all(r.ok for r in reports) else EXIT_FINDINGS


def _faults_args(ap: argparse.ArgumentParser) -> None:
    from .faults.campaign import CAMPAIGNS

    ap.add_argument("--campaign", default="default",
                    help=f"campaign to run; choices: {sorted(CAMPAIGNS)}")
    ap.add_argument("--smoke", action="store_true",
                    help="the guaranteed-detection campaign (CI; floor 100%%)")
    ap.add_argument("--seed", type=int, default=1234,
                    help="campaign seed (same seed => identical findings)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print every injection record")


def _faults(args) -> int:
    """``faults`` subcommand: exit 0 when every checker meets its
    coverage floor, 1 otherwise."""
    from .faults.campaign import run_campaign

    result = run_campaign("smoke" if args.smoke else args.campaign, seed=args.seed)
    print(result.to_text(verbose=args.verbose))
    return EXIT_CLEAN if result.passed else EXIT_FINDINGS


def _obs_args(ap: argparse.ArgumentParser) -> None:
    from .experiments.runner import EXPERIMENTS

    ap.add_argument("--only", type=str, default="",
                    help=f"comma-separated experiment names; choices: {sorted(EXPERIMENTS)}")
    ap.add_argument("--full", action="store_true", help="use the full DLMC-style suite")
    ap.add_argument("--jobs", type=int, default=1,
                    help="fan the experiments out over N worker processes "
                         "(worker spans are stitched into one timeline)")
    ap.add_argument("--trace-out", type=str, default="",
                    help="write the Chrome trace-event JSON here (a sibling "
                         "<stem>.metrics.json carries the metrics snapshot)")
    ap.add_argument("--top", type=_non_negative_int, default=10,
                    help="rows in the slowest-spans table (0 disables it)")
    ap.add_argument("--tree", action="store_true",
                    help="print the nested span tree after the run")
    ap.add_argument("--smoke", action="store_true",
                    help="CI gate: one fast experiment, then validate the Chrome "
                         "trace schema and require >=95%% span coverage of the "
                         "measured wall-clock")


def _obs(args) -> int:
    """``obs`` subcommand: exit 0 on success, 1 when the smoke gates
    fail or the sweep degrades."""
    import time as _time

    from .experiments.runner import SweepFailure, run_all
    from .obs import metrics as obs_metrics
    from .obs import tracing as obs_tracing
    from .perfmodel import sharedmemo as _sharedmemo

    only = [s.strip() for s in args.only.split(",") if s.strip()] or None
    if args.smoke and only is None:
        only = ["table1"]  # fastest registered experiment

    obs_tracing.reset()
    obs_metrics.reset()
    previous = obs_tracing.set_enabled(True)
    rc = EXIT_CLEAN
    t0 = _time.perf_counter()
    try:
        run_all(quick=not args.full, only=only, jobs=args.jobs)
    except SweepFailure:
        rc = EXIT_FINDINGS
    finally:
        obs_tracing.set_enabled(previous)
    wall = _time.perf_counter() - t0

    spans = obs_tracing.completed_spans()
    # coverage: the root run_all span's share of the measured wall-clock
    root_ns = max((s["dur_ns"] for s in spans if s["name"] == "run_all"), default=0)
    coverage = root_ns / (wall * 1e9) if wall > 0 else 0.0

    if args.tree:
        print("== span tree ==")
        print(obs_tracing.render_tree(spans))
        print()
    if args.top > 0:
        rows = obs_tracing.slowest_table(args.top, spans)
        if rows:
            print(f"== slowest {len(rows)} spans ==")
            print(format_table(rows))
            print()
    snap = obs_metrics.snapshot()
    # one row per (region, tier): the local process caches always, the
    # shared cross-process tier whenever it is on or saw traffic
    show_shared = _sharedmemo.enabled() or any(
        row["shared_hits"] or row["shared_misses"]
        for row in snap["memo"].values())
    memo_rows = []
    for r, row in sorted(snap["memo"].items()):
        memo_rows.append({"Region": r, "Tier": "local", "Hits": row["hits"],
                          "Misses": row["misses"],
                          "Hit_Rate": row["hit_rate"]})
        if show_shared:
            memo_rows.append({"Region": r, "Tier": "shared",
                              "Hits": row["shared_hits"],
                              "Misses": row["shared_misses"],
                              "Hit_Rate": row["shared_hit_rate"]})
    print("== memo hit rates ==")
    print(format_table(memo_rows))
    if show_shared:
        print(f"memo.shared.hit_rate: {snap['derived']['memo.shared.hit_rate']}")
    print(f"\nspans: {len(spans)}  wall: {wall:.2f}s  "
          f"timeline coverage: {100.0 * coverage:.1f}%")

    if args.trace_out:
        trace_path = Path(args.trace_out)
        obs_tracing.export_chrome_trace(trace_path, spans)
        metrics_path = trace_path.with_name(trace_path.stem + ".metrics.json")
        obs_metrics.write_json(metrics_path)
        print(f"trace written to {trace_path} (load in Perfetto / chrome://tracing); "
              f"metrics in {metrics_path}")

    if args.smoke:
        doc = {"traceEvents": obs_tracing.chrome_trace_events(spans),
               "displayTimeUnit": "ms"}
        failures = [f"chrome trace schema: {p}"
                    for p in obs_tracing.validate_chrome_trace(doc)]
        if coverage < 0.95:
            failures.append(f"span coverage: {100.0 * coverage:.1f}% < 95% "
                            f"of measured wall-clock")
        if not snap["memo"] or not snap["cache"]:
            failures.append("metrics snapshot: memo/cache tables missing")
        rc = max(rc, _smoke_gate("obs", failures, "obs smoke: chrome schema "
                                 "OK, coverage OK, metrics tables OK"))
    return rc


def _plans_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--rows", type=_positive_int, default=64, help="sparse operand rows")
    ap.add_argument("--cols", type=_positive_int, default=128, help="sparse operand cols")
    ap.add_argument("--sparsity", type=float, default=0.7, help="vector-level sparsity")
    ap.add_argument("-V", "--vector-length", type=int, default=4, choices=(2, 4, 8))
    ap.add_argument("-N", type=_positive_int, default=64, help="dense columns (SpMM)")
    ap.add_argument("-K", type=_positive_int, default=64, help="inner dimension (SDDMM)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parity", action="store_true",
                    help="also execute each plan and require bit-identity "
                         "against the interpreted *_reference twin")


def _plans(args) -> int:
    """``plans`` subcommand: exit 0 when every plan validates (and, with
    ``--parity``, matches its reference bit for bit), 1 otherwise."""
    from . import plans
    from .kernels.cases import KERNEL_CASES
    from .perfmodel import memo

    rng = np.random.default_rng(args.seed)
    v = args.vector_length
    csr = generate_topology((args.rows, args.cols), args.sparsity, rng)
    a = cvse_from_csr_topology(csr, v, rng)
    mask = ColumnVectorSparseMatrix(a.shape, v, a.row_ptr, a.col_idx, None)
    b_spmm = rng.uniform(-1, 1, (a.shape[1], args.N)).astype(np.float16)
    a_dense = rng.uniform(-1, 1, (a.shape[0], args.K)).astype(np.float16)
    b_sddmm = rng.uniform(-1, 1, (args.K, a.shape[1])).astype(np.float16)

    def _bits_equal(x, y) -> bool:
        xv = np.asarray(x.values if hasattr(x, "values") else x)
        yv = np.asarray(y.values if hasattr(y, "values") else y)
        return np.array_equal(xv.view(np.uint16), yv.view(np.uint16))

    # operand kind -> (plan structure, SDDMM inner dimension, execute args)
    operands = {"cvse": (a, None, (a, b_spmm)),
                "mask": (mask, args.K, (a_dense, b_sddmm, mask))}
    before = memo.counters()
    rows, failed = [], False
    for case in KERNEL_CASES.values():
        if case.plan is None:
            continue
        kern = case.kernel(simulate=True)
        structure, k, run_args = operands[case.operand]
        plan = case.compile_plan(kern, structure, k)
        findings = plans.validate_plan(plan, structure, k=k)
        row = {"kernel": case.name, "plan": type(plan).__name__,
               "groups": int(plan.layout.num_groups), "findings": len(findings)}
        if args.parity:
            got = kern._execute_simulated(*run_args)
            ref = kern._execute_simulated_reference(*run_args)
            row["parity"] = "ok" if _bits_equal(got, ref) else "FAIL"
            failed |= row["parity"] == "FAIL"
        failed |= bool(findings)
        rows.append(row)
        for msg in findings:
            print(f"  {case.name}: {msg}", file=sys.stderr)
    after = memo.counters()
    print(format_table(rows))
    h0, m0 = before.get("plan", (0, 0))
    h1, m1 = after.get("plan", (0, 0))
    hits, misses = h1 - h0, m1 - m0
    print(f"\nplan cache: {hits} hit(s), {misses} miss(es) "
          f"(memo={memo.enabled()})")
    return EXIT_FINDINGS if failed else EXIT_CLEAN


def _memo_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--dir", type=str, default="",
                    help="store directory (default: REPRO_MEMO_SHARED_DIR "
                         "or .repro-memo)")
    ap.add_argument("--verify", action="store_true",
                    help="re-read and re-hash every live entry; exit 1 when "
                         "any is corrupt")


def _memo(args) -> int:
    """``memo`` subcommand: exit 0, or 1 when ``--verify`` finds
    corruption."""
    from .perfmodel import sharedmemo

    if args.dir:
        if Path(args.dir).exists() and not Path(args.dir).is_dir():
            raise ValueError(f"--dir {args.dir} is not a directory")
        sharedmemo.set_dir(args.dir)
    rc = EXIT_CLEAN
    if args.verify:
        ok, corrupt = sharedmemo.verify_store()
        print(f"verify: {ok} entr{'y' if ok == 1 else 'ies'} ok, "
              f"{corrupt} corrupt")
        rc = EXIT_FINDINGS if corrupt else EXIT_CLEAN
    st = sharedmemo.stats()
    print(f"shared memo store: {st['dir']}")
    print(f"  live entries: {st['live_entries']} ({st['live_bytes']} bytes)")
    rows = [{"region": r, "entries": row["entries"], "bytes": row["bytes"]}
            for r, row in st["regions"].items()]
    print(format_table(rows) if rows else "  (no live entries)")
    return rc


def _merge_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("shards", nargs="+", metavar="SHARD_DIR",
                    help="output directories written by --shard I/N runs")
    ap.add_argument("--out", type=str, required=True,
                    help="directory for the merged sweep result")


def _merge(args) -> int:
    """``merge`` subcommand: combine, then verify.  Exit 0 merged and
    every artifact verifies, 1 a merged artifact failed verification (a
    bug, not an input problem), 2 the shard outputs cannot be merged
    (mismatched configs, missing or corrupt shards)."""
    from .experiments.sharding import MergeError, merge_shards, verify_manifest

    out = Path(args.out)
    try:
        summary = merge_shards(args.shards, out)
    except MergeError as exc:
        return _usage_error(f"merge refused: {exc}")
    checks = verify_manifest(out)
    print(f"merged {summary['shards']} shards -> {summary['out']} "
          f"({len(summary['experiments'])} experiments)")
    for name, ok in checks.items():
        print(f"  {name}: {'verified' if ok else 'CHECKSUM MISMATCH'}")
    return EXIT_CLEAN if checks and all(checks.values()) else EXIT_FINDINGS


def _serve_args(ap: argparse.ArgumentParser) -> None:
    from .serving import SCENARIOS

    ap.add_argument("--scenario", default="",
                    help="scenario to simulate (default: steady, or overload "
                         f"under --smoke); choices: {sorted(SCENARIOS)}")
    ap.add_argument("--requests", type=int, default=8000,
                    help="requests to generate (default 8000)")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload/fault seed (same seed => bit-identical "
                         "ledger digest)")
    ap.add_argument("--workers", type=int, default=0,
                    help="override the scenario's worker count (0 keeps it)")
    ap.add_argument("--load", type=float, default=0.0,
                    help="override the scenario's offered-load multiple "
                         "(0 keeps it)")
    ap.add_argument("--trace-out", type=str, default="",
                    help="write a Chrome trace-event timeline here (worker "
                         "lanes = batch executions, tenant lanes = request "
                         "lifecycles)")
    ap.add_argument("--sweep", action="store_true",
                    help="also print the goodput-vs-offered-load table "
                         "(re-simulates the scenario at each load multiple)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI gate on the overload scenario: bit-identical "
                         "digest across a re-run, zero corrupt-served, "
                         "admitted p99 within every tenant SLO, and complete "
                         "typed outcome accounting")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print the full JSON report document")


def _serve(args) -> int:
    """``serve`` subcommand: exit 0 on a clean run, 1 when the smoke
    gates fail."""
    import dataclasses
    import json as _json

    from .obs import tracing as obs_tracing
    from .serving import (
        format_report,
        format_sweep,
        get_scenario,
        load_sweep,
        report,
        simulate,
        timeline_spans,
    )

    scenario = get_scenario(args.scenario or ("overload" if args.smoke else "steady"))
    if args.workers:
        if args.workers < 0:
            raise ValueError(f"--workers must be positive, got {args.workers}")
        scenario = dataclasses.replace(scenario, workers=args.workers)
    if args.load:
        if not 0 < args.load < np.inf:  # NaN fails both comparisons
            raise ValueError(f"--load must be positive and finite, got {args.load}")
        scenario = scenario.with_load(args.load)
    if args.requests <= 0:
        raise ValueError(f"--requests must be positive, got {args.requests}")
    result = simulate(scenario, args.requests, args.seed)

    doc = report(result)
    print(format_report(result))
    if args.verbose:
        print()
        print(_json.dumps(doc, indent=2))
    if args.sweep:
        print("\ngoodput vs offered load (same seed, load is the only "
              "variable):\n")
        print(format_sweep(load_sweep(scenario, args.requests, args.seed)))

    if args.trace_out:
        spans = timeline_spans(result)
        trace_path = Path(args.trace_out)
        obs_tracing.export_chrome_trace(trace_path, spans)
        print(f"\ntrace written to {trace_path} "
              f"({len(spans)} events; load in Perfetto / chrome://tracing)")

    if not args.smoke:
        return EXIT_CLEAN
    failures = []
    rerun = simulate(scenario, args.requests, args.seed)
    if rerun.ledger_digest() != result.ledger_digest():
        failures.append("determinism: same-seed rerun produced a "
                        "different ledger digest")
    if doc["outcomes"]["corrupt-served"]:
        failures.append(f"corruption containment: "
                        f"{doc['outcomes']['corrupt-served']} corrupted "
                        f"result(s) served to tenants")
    worst = max((row["p99_slo_ratio"] for row in doc["per_tenant"]
                 if row["completed"]), default=0.0)
    if worst > 1.0:
        failures.append(f"SLO: admitted p99 reached {worst:.2f}x the "
                        f"tenant SLO (gate 1.0x)")
    accounted = sum(doc["outcomes"].values())
    if accounted != args.requests or doc["outcomes"]["pending"]:
        failures.append(f"accounting: {accounted}/{args.requests} "
                        f"requests typed, "
                        f"{doc['outcomes']['pending']} pending")
    return _smoke_gate("serve", failures,
                       f"\nserve smoke: determinism OK, corruption containment "
                       f"OK, SLO OK (worst p99 {worst:.2f}x), accounting OK")


def _profile_args(ap: argparse.ArgumentParser) -> None:
    from .profiler import CONFIGS, DEFAULT_CONFIG, KERNEL_NAMES

    ap.add_argument("--config", default=DEFAULT_CONFIG,
                    help=f"named profile config (default {DEFAULT_CONFIG}); "
                         f"choices: {sorted(CONFIGS)}")
    ap.add_argument("--kernel", action="append", default=None,
                    help="restrict to this kernel (repeatable); choices: "
                         f"{sorted(KERNEL_NAMES)}")
    ap.add_argument("--top", type=_positive_int, default=3,
                    help="bottlenecks to attribute per kernel (default 3)")
    ap.add_argument("--json", type=str, default="",
                    help="also write the profile document (config and every "
                         "kernel's counters) plus the roofline here as JSON")
    ap.add_argument("--baseline", type=str,
                    default="tools/profile_baseline.json",
                    help="counter baseline (default "
                         "tools/profile_baseline.json)")
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 1) when any counter, kernel or the "
                         "config differs from the baseline")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run's counters")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                    help="diff two kernels of this config side by side")
    ap.add_argument("--smoke", action="store_true",
                    help="CI gate: all kernels classified, roofline "
                         "agreement on the gated configs, baseline check "
                         "when present")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print ranked bottleneck attribution per kernel")


def _profile(args) -> int:
    """``profile`` subcommand: exit 0 clean, 1 on failed gates or a
    baseline difference."""
    from . import profiler
    from .profiler import CONFIGS, roofline_agreement, roofline_doc
    from .profiler.report import bottleneck_lines, roofline_summary

    _validate_names([args.config], CONFIGS, "config")
    config = CONFIGS[args.config]
    profiles = profiler.profile_all(config, kernels=args.kernel, top=args.top)

    print(f"profile config {config.name}: seq={config.seq} head={config.head} "
          f"V={config.v} density={config.density} seed={config.seed}\n")
    print(profiler.profile_table(profiles))
    doc = roofline_doc(profiles)
    print()
    print(roofline_summary(doc))
    if args.verbose:
        print("\nwhat to fix first:\n")
        for line in bottleneck_lines(profiles):
            print(line)

    if args.diff:
        a, b = args.diff
        _validate_names([a, b], profiles, "kernels")
        print(f"\ndiff {a} vs {b}:\n")
        print(profiler.diff_kernels(profiles[a], profiles[b]))

    document = profiler.profile_document(profiles, config)
    if args.json:
        profiler.write_document(Path(args.json), {**document, "roofline": doc})
        print(f"\nprofile document written to {args.json}")

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        if args.kernel is not None:
            return _usage_error("--update-baseline needs a full sweep, not "
                                "a --kernel subset")
        profiler.write_document(baseline_path, document)
        print(f"baseline written to {baseline_path}")

    failures: List[str] = []
    if args.check or (args.smoke and baseline_path.exists()):
        if not baseline_path.exists():
            return _usage_error(f"baseline {baseline_path} does not exist "
                                f"(create it with --update-baseline)")
        baseline = profiler.load_baseline(baseline_path)
        changed = profiler.check_profiles(document, baseline)
        from .obs import metrics as obs_metrics
        obs_metrics.counter_add("profiler.check.regressions",
                                sum(len(rows) for rows in changed.values()))
        if changed:
            print(f"\nbaseline check FAILED against {baseline_path}:",
                  file=sys.stderr)
            for name, rows in changed.items():
                print(f"\n{name}\n{format_table(rows)}", file=sys.stderr)
            failures.append(f"baseline: {sorted(changed)} differ from "
                            f"{baseline_path}")
        else:
            print(f"\nbaseline check OK ({len(baseline['kernels'])} kernels, "
                  f"every counter equal)")

    if not args.smoke:
        return EXIT_FINDINGS if failures else EXIT_CLEAN
    if args.kernel is None and len(profiles) != len(profiler.KERNEL_NAMES):
        failures.append(f"coverage: {len(profiles)}/"
                        f"{len(profiler.KERNEL_NAMES)} kernels profiled")
    unclassified = [n for n, p in profiles.items()
                    if p.classification not in ("compute", "memory", "latency")]
    if unclassified:
        failures.append(f"classification: {unclassified}")
    mismatched = roofline_agreement(profiles)
    if mismatched:
        failures.append(f"roofline agreement: {mismatched} classified "
                        f"against the two-ceiling prediction")
    return _smoke_gate("profile", failures,
                       f"\nprofile smoke: {len(profiles)} kernels classified, "
                       f"roofline agreement OK")


def _compare(cases, extent: int, dense_shape: Tuple[int, int, int],
             only) -> Tuple[List[Dict[str, object]], List[KernelProfile]]:
    """Rows + guideline reports for ``(key, label, kernel, operand)``
    cases against the dense cuBLAS analog of ``dense_shape`` (m, k, n);
    ``only`` keeps the named keys."""
    dense = DenseGemmKernel()
    t_dense = dense._model.estimate(dense.stats_for_shape(*dense_shape)).time_us
    rows = [{"kernel": "cublasHgemm", "time_us": round(t_dense, 2), "speedup": 1.0}]
    reports = []
    for key, label, kern, operand in cases:
        if only is not None and key not in only:
            continue
        st = kern.stats_for(operand, extent)
        est = kern._model.estimate(st)
        rows.append({"kernel": label, "time_us": round(est.time_us, 2),
                     "speedup": round(t_dense / est.time_us, 3)})
        rep = derive_profile(st, kern._model)
        rep.name = label
        reports.append(rep)
    return rows, reports


def bench_spmm(csr, v: int, n: int,
               only=None) -> Tuple[List[Dict[str, object]], List[KernelProfile]]:
    """SpMM comparison rows + guideline reports for one topology.

    ``only`` restricts the table to the named kernels (see
    ``SPMM_BENCH_KERNELS``); unknown names raise ``ValueError`` listing
    the valid choices.
    """
    if only is not None:
        _validate_names(only, SPMM_BENCH_KERNELS, "kernels")
    rng = np.random.default_rng(1)
    a = cvse_from_csr_topology(csr, v, rng)
    cases = ([("octet", "mma (octet)", OctetSpmmKernel(), a),
              ("wmma", "wmma", WmmaSpmmKernel(), a)] if v >= 2 else [])
    cases += [("fpu", "fpu (sputnik)", FpuSpmmKernel(), a),
              ("blocked-ell", "blocked-ELL", BlockedEllSpmmKernel(),
               blocked_ell_matching(a, rng))]
    return _compare(cases, n, (*a.shape, n), only)


def bench_sddmm(csr, v: int, k: int,
                only=None) -> Tuple[List[Dict[str, object]], List[KernelProfile]]:
    """SDDMM comparison rows + guideline reports for one topology.

    ``only`` restricts the table to the named kernels (see
    ``SDDMM_BENCH_KERNELS``); unknown names raise ``ValueError``.
    """
    if only is not None:
        _validate_names(only, SDDMM_BENCH_KERNELS, "kernels")
    cv = cvse_from_csr_topology(csr, v, np.random.default_rng(1))
    mask = ColumnVectorSparseMatrix(cv.shape, v, cv.row_ptr, cv.col_idx, None)
    cases = [(variant, f"mma ({variant})", OctetSddmmKernel(variant=variant), mask)
             for variant in ("reg", "shfl", "arch")]
    cases += [("wmma", "wmma", WmmaSddmmKernel(), mask),
              ("fpu", "fpu (sputnik)", FpuSddmmKernel(), mask)]
    m, n = mask.shape
    return _compare(cases, k, (m, k, n), only)


def _bench(args) -> int:
    """The bare ``repro-bench`` kernel table."""
    try:
        csr = (read_smtx(args.smtx) if args.smtx else generate_topology(
            (args.rows, args.cols), args.sparsity, np.random.default_rng(args.seed)))
    except (OSError, ValueError) as exc:
        return _usage_error(f"reading matrix: {exc}")
    v = args.vector_length
    print(
        f"matrix: {csr.shape[0]}x{csr.shape[1]} topology, sparsity {csr.sparsity:.1%}, "
        f"V={v} -> logical {csr.shape[0] * v}x{csr.shape[1]}"
    )
    if args.op == "spmm":
        rows, reports = bench_spmm(csr, v, args.N, only=args.kernel)
        print(f"\nSpMM, N={args.N} (times on the simulated V100):\n")
    else:
        rows, reports = bench_sddmm(csr, v, args.K, only=args.kernel)
        print(f"\nSDDMM, K={args.K} (times on the simulated V100):\n")
    print(format_table(rows))
    if args.profile:
        print("\nfive-guideline profile (Table 2/3 layout):\n")
        print(format_table(guidelines_table(reports)))
    return EXIT_CLEAN


#: ``repro-bench <name> ...`` -> (description, add_arguments, run)
_SUBCOMMANDS = {
    "sanitize": ("Run the kernel sanitizer (memcheck/racecheck/synccheck/"
                 "ownership/statcheck) over kernel cases x problem suites",
                 _sanitize_args, _sanitize),
    "faults": ("Run a seeded SDC fault-injection campaign and score the "
               "sanitizer's detection coverage against the documented floors",
               _faults_args, _faults),
    "obs": ("Run experiments under the observability layer: structured "
            "spans, a metrics snapshot, and a Chrome trace-event "
            "timeline (see docs/OBSERVABILITY.md)",
            _obs_args, _obs),
    "plans": ("Compile the execution plans (repro.plans) of every "
              "simulated kernel on a seeded problem, run the ownership "
              "validation over them, and report the plan-cache traffic",
              _plans_args, _plans),
    "memo": ("Inspect or verify the shared cross-process memo store "
             "(repro.perfmodel.sharedmemo)",
             _memo_args, _memo),
    "merge": ("Combine N --shard sweep output directories, each holding "
              "whole experiments, into one verified full-sweep result "
              "(exit 2 on mismatched shard configurations or an "
              "experiment missing from every shard or present in two)",
              _merge_args, _merge),
    "serve": ("Run the deterministic multi-tenant serving simulator "
              "(admission control, hedged retries, graceful "
              "degradation) over a named scenario; see docs/SERVING.md",
              _serve_args, _serve),
    "profile": ("Nsight-Compute-analog profiler: derive per-kernel "
                "counters, roofline classification and ranked bottleneck "
                "attribution for the registered kernels; see "
                "docs/PROFILER.md",
                _profile_args, _profile),
}


def main(argv=None) -> int:
    """``repro-bench`` entry point: a subcommand name parses the rest with
    that subcommand's arguments and runs its handler, anything else runs
    the kernel table.  A ``ValueError`` from any handler is a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        description, add_arguments, run = _SUBCOMMANDS[argv[0]]
        ap = argparse.ArgumentParser(prog=f"repro-bench {argv[0]}",
                                     description=description, exit_on_error=False)
        add_arguments(ap)
        argv = argv[1:]
    else:
        ap, run = build_parser(), _bench
    try:
        args = ap.parse_args(argv)
    except argparse.ArgumentError as exc:
        if not isinstance(exc.__context__, argparse.ArgumentTypeError):
            ap.error(str(exc))  # argparse's own report for every other bad value
        return _usage_error(f"{exc.argument_name} {exc.message}")
    try:
        return run(args)
    except ValueError as exc:
        return _usage_error(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
