"""Wall-clock benchmark of the execution-plan codegen layer.

Builds overhead-dominated problems (many vector rows, few nonzeros per
row — the regime where the interpreted per-row walk is pure Python
control flow) and times each simulated kernel's compiled-plan path
(``_execute_simulated``, plan cache warm) against its pinned
interpreted twin (the batched walk in ``tests.oracles.ORACLES``), best
of ``--repeats``.  The two paths must agree bit for bit (uint16 views of
the fp16 outputs) and issue identical tensor-core instruction counts.
The shared functional layer's plan paths are timed the same way and
recorded alongside (informational — the CSR product already is a
handful of array ops, so its win is the expansion only).

The gate: the *minimum* speedup across the simulated kernels must
clear ``--floor`` (default 5x) and every path must be bit-identical.
``--smoke`` shrinks the problems and skips the record append but keeps
both gates — the CI variant.  Full runs append the record to
``BENCH_simulator.json`` so the codegen speedup trajectory is tracked
next to the other wall-clock benchmarks.

Usage::

    python benchmarks/bench_codegen.py [--repeats 3] [--floor 5.0]
                                       [--out BENCH_simulator.json]
    python benchmarks/bench_codegen.py --smoke
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
sys.path.insert(0, str(REPO))  # the interpreted twins live in tests/oracles

import numpy as np  # noqa: E402

from repro.datasets import generate_topology  # noqa: E402
from repro.formats import cvse_from_csr_topology  # noqa: E402
from repro.formats.cvse import ColumnVectorSparseMatrix  # noqa: E402
from repro.kernels.functional import sddmm_functional, spmm_functional  # noqa: E402
from repro.kernels.sddmm_octet import OctetSddmmKernel  # noqa: E402
from repro.kernels.sddmm_wmma import WmmaSddmmKernel  # noqa: E402
from repro.kernels.spmm_octet import OctetSpmmKernel  # noqa: E402
from repro.kernels.spmm_wmma import WmmaSpmmKernel  # noqa: E402
from tests.oracles import (  # noqa: E402
    ORACLES,
    sddmm_functional_reference,
    spmm_functional_reference,
)


def _best_of(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _values(x):
    return np.asarray(x.values if isinstance(x, ColumnVectorSparseMatrix) else x)


def _bits_equal(x, y) -> bool:
    xv, yv = _values(x), _values(y)
    return xv.shape == yv.shape and np.array_equal(
        xv.view(np.uint16), yv.view(np.uint16)
    )


def _counts(st):
    return (st.hmma_steps, st.mma_instructions, st.switch_steps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the plan-codegen layer")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed runs per path; the minimum is kept")
    ap.add_argument("--floor", type=float, default=5.0,
                    help="minimum required speedup across the simulated kernels")
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="trajectory JSON to append to")
    ap.add_argument("--smoke", action="store_true",
                    help="small problems, single repeat, no record appended "
                         "(both gates stay active) — the CI variant")
    args = ap.parse_args(argv)

    v = 4
    if args.smoke:
        vrows, cols, n, k, repeats = 192, 768, 64, 16, 1
    else:
        vrows, cols, n, k, repeats = 384, 768, 64, 16, args.repeats
    sparsity = 0.9975  # few nonzeros per row: control flow dominates

    rng = np.random.default_rng(42)
    topo = generate_topology((vrows, cols), sparsity, rng)
    a = cvse_from_csr_topology(topo, v, rng)
    mask = ColumnVectorSparseMatrix(a.shape, v, a.row_ptr, a.col_idx, None)
    b_spmm = rng.uniform(-1, 1, (a.shape[1], n)).astype(np.float16)
    a_dense = rng.uniform(-1, 1, (a.shape[0], k)).astype(np.float16)
    b_sddmm = rng.uniform(-1, 1, (k, a.shape[1])).astype(np.float16)

    sp_oct = OctetSpmmKernel(simulate=True)
    sp_wmma = WmmaSpmmKernel(simulate=True)
    sd_oct = OctetSddmmKernel(variant="reg", simulate=True)
    sd_wmma = WmmaSddmmKernel(simulate=True)

    def timed_pair(name, kern, *ops):
        oracle = ORACLES[type(kern)]
        kern._execute_simulated(*ops)  # warm the plan cache: codegen cost is amortised
        t_plan, got = _best_of(lambda: kern._execute_simulated(*ops), repeats)
        st_plan = _counts(kern.last_sim_stats)
        t_ref, (ref, ref_stats) = _best_of(lambda: oracle(kern, *ops), repeats)
        same = _bits_equal(got, ref) and st_plan == _counts(ref_stats)
        return name, t_ref, t_plan, same

    simulated = [
        timed_pair("spmm-octet", sp_oct, a, b_spmm),
        timed_pair("spmm-wmma", sp_wmma, a, b_spmm),
        timed_pair("sddmm-octet-reg", sd_oct, a_dense, b_sddmm, mask),
        timed_pair("sddmm-wmma", sd_wmma, a_dense, b_sddmm, mask),
    ]
    def timed_functional(name, plan_fn, ref_fn):
        plan_fn()  # warm the plan cache
        t_plan, got = _best_of(plan_fn, repeats)
        t_ref, ref = _best_of(ref_fn, repeats)
        return name, t_ref, t_plan, _bits_equal(got, ref)

    functional = [
        timed_functional("spmm-functional",
                         lambda: spmm_functional(a, b_spmm),
                         lambda: spmm_functional_reference(a, b_spmm)),
        timed_functional("sddmm-functional",
                         lambda: sddmm_functional(a_dense, b_sddmm, mask),
                         lambda: sddmm_functional_reference(a_dense, b_sddmm, mask)),
    ]

    kernels = {}
    identical = True
    min_speedup = float("inf")
    for name, t_ref, t_plan, same in simulated:
        speedup = t_ref / t_plan if t_plan else float("inf")
        min_speedup = min(min_speedup, speedup)
        identical &= same
        kernels[name] = {"interpreted_s": round(t_ref, 4),
                         "plan_s": round(t_plan, 4),
                         "speedup": round(speedup, 1), "identical": same}
    for name, t_ref, t_plan, same in functional:
        identical &= same
        kernels[name] = {"interpreted_s": round(t_ref, 4),
                         "plan_s": round(t_plan, 4),
                         "speedup": round(t_ref / t_plan, 1) if t_plan else float("inf"),
                         "identical": same, "gated": False}

    record = {
        "benchmark": "plan_codegen",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "problem": f"V={v} {vrows * v}x{cols} @ {sparsity} N={n} K={k}",
        "repeats": repeats,
        "kernels": kernels,
        "min_simulated_speedup": round(min_speedup, 1),
        "speedup": round(min_speedup, 1),
        "outputs_identical": identical,
    }
    print(json.dumps(record, indent=2))

    if not identical:
        print("ERROR: a plan path diverged from its interpreted reference",
              file=sys.stderr)
        return 1
    if min_speedup < args.floor:
        print(f"ERROR: min simulated-kernel speedup {min_speedup:.1f}x "
              f"is below the {args.floor:.1f}x floor", file=sys.stderr)
        return 1
    if not args.smoke:
        from repro.benchrecords import append_bench_record

        append_bench_record(Path(args.out), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
