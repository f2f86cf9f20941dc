"""Wall-clock benchmark of the trace-replay engine.

Builds the full-size Figure 18 problem (V=4, 2048x1024, N=256),
materialises the octet-SpMM and Blocked-ELL sector streams once, and
times :func:`repro.perfmodel.trace.replay_l1` (vectorised engine)
against ``tests.oracles.replay_l1_reference`` (scalar cache, ``pop(0)``
interleave — the pinned reference), best of ``--repeats``.  The two
replays must return identical :class:`TraceResult`\\ s; the record is
appended to ``BENCH_simulator.json`` so the speedup trajectory is
tracked next to the analytic-layer benchmark.  It also checks that each
memoised ``trace_*`` entry point, which builds only the sampled SMs'
CTAs, equals ``replay_l1`` over the full generator stream
(``tests.oracles.TRACE_TWINS``) on the same problem.

Usage::

    python benchmarks/bench_trace.py [--sparsity 0.9] [--repeats 3]
                                     [--out BENCH_simulator.json]
    python benchmarks/bench_trace.py --smoke     # CI: small problem,
                                                 # parity only, no record
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO / "BENCH_simulator.json"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # the scalar reference lives in tests/oracles

import numpy as np  # noqa: E402

from repro.datasets import generate_topology  # noqa: E402
from repro.formats import blocked_ell_matching, cvse_from_csr_topology  # noqa: E402
from repro.perfmodel.trace import (  # noqa: E402
    blocked_ell_cta_sectors,
    octet_spmm_cta_sectors,
    replay_l1,
)
from tests.oracles import TRACE_TWINS, replay_l1_reference, trace_args  # noqa: E402


def _best_of(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the trace-replay engine")
    ap.add_argument("--sparsity", type=float, default=0.9,
                    help="sparsity of the fig18 problem (default 0.9)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed runs per configuration; the minimum is kept")
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="trajectory JSON to append to")
    ap.add_argument("--smoke", action="store_true",
                    help="small problem, single repeat, parity check only "
                         "(no record appended) — the CI variant")
    args = ap.parse_args(argv)

    vector_length = 4
    if args.smoke:
        shape, n, repeats = (128, 512), 128, 1
    else:
        shape, n, repeats = (2048 // vector_length, 1024), 256, args.repeats

    rng = np.random.default_rng(18)
    topo = generate_topology(shape, args.sparsity, rng)
    a = cvse_from_csr_topology(topo, vector_length, rng)
    ell = blocked_ell_matching(a, rng)

    streams = {
        "octet": (list(octet_spmm_cta_sectors(a, n)), dict(sample_sms=2)),
        "blocked-ell": (
            list(blocked_ell_cta_sectors(ell, n)),
            dict(coresident=4, l1_data_bytes=32 * 1024, sample_sms=2),
        ),
    }

    scalar_s = vector_s = 0.0
    sectors = 0
    identical = True
    per_stream = {}
    for name, (stream, kw) in streams.items():
        t_ref, r_ref = _best_of(lambda: replay_l1_reference(iter(stream), **kw), repeats)
        t_vec, r_vec = _best_of(lambda: replay_l1(iter(stream), **kw), repeats)
        same = r_ref == r_vec
        identical &= same
        scalar_s += t_ref
        vector_s += t_vec
        sectors += r_vec.sector_accesses
        per_stream[name] = {
            "scalar_s": round(t_ref, 4),
            "vector_s": round(t_vec, 4),
            "speedup": round(t_ref / t_vec, 1) if t_vec else float("inf"),
            "identical": same,
        }

    # each sampled entry point against its full-stream twin
    sampled = {entry.__name__: entry.__wrapped__(*args) == TRACE_TWINS[entry](*args)
               for entry, args in trace_args(a, ell, n).items()}
    record = {
        "benchmark": "trace_replay",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "problem": f"fig18 V={vector_length} {shape[0] * vector_length}x{shape[1]}x{n} "
                   f"@ {args.sparsity}",
        "repeats": repeats,
        "sampled_sectors": sectors,
        "streams": per_stream,
        "scalar_reference_s": round(scalar_s, 3),
        "vector_engine_s": round(vector_s, 4),
        "speedup": round(scalar_s / vector_s, 1) if vector_s else float("inf"),
        "outputs_identical": identical,
        "sampled_entries_identical": sampled,
    }
    print(json.dumps(record, indent=2))

    if not identical:
        print("ERROR: vectorised replay diverged from the scalar reference",
              file=sys.stderr)
        return 1
    if not all(sampled.values()):
        print("ERROR: a sampled trace entry point diverged from its full-stream replay",
              file=sys.stderr)
        return 1
    if not args.smoke:
        from repro.benchrecords import append_bench_record

        append_bench_record(Path(args.out), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
