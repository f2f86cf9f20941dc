#!/usr/bin/env python
"""Profile kernels against the paper's five guidelines (§3.2).

Builds the §7.2.2 reference benchmarks and prints Table-2/Table-3-style
guideline profiles for every SpMM and SDDMM implementation, plus the
stall-reason breakdowns that explain each design's behaviour.

Run:  python examples/kernel_profiler.py
"""

import numpy as np

from repro import cvse_from_csr_topology
from repro.datasets import generate_topology
from repro.formats import ColumnVectorSparseMatrix, blocked_ell_matching
from repro.kernels import (
    BlockedEllSpmmKernel,
    FpuSddmmKernel,
    FpuSpmmKernel,
    OctetSddmmKernel,
    OctetSpmmKernel,
    WmmaSddmmKernel,
    WmmaSpmmKernel,
)
from repro.profiler import derive_profile
from repro.profiler.report import format_table, guidelines_table


def derive_all(kernels):
    """Profile each ``(name, kernel, stats)``; keep the stats for the
    raw counters (registers per thread) the profile does not copy."""
    profiles, stats = [], []
    for name, kern, st in kernels:
        p = derive_profile(st, kern._model)
        p.name = name
        profiles.append(p)
        stats.append(st)
    return profiles, stats


def print_detail(profiles, stats):
    print("\nper-kernel detail:")
    for p, st in zip(profiles, stats):
        print(
            f"  {p.name:12s}: {p.time_us:7.1f} us  limiter={p.limiter:14s} "
            f"occupancy={p.occupancy_pct:.0f}%  "
            f"regs/thread={st.resources.registers_per_thread}"
        )


rng = np.random.default_rng(0)
V, N, K = 4, 256, 256

# --- SpMM: A[2048x1024] x B[1024x256], 90% sparsity --------------------------
topo = generate_topology((2048 // V, 1024), 0.9, rng)
a = cvse_from_csr_topology(topo, V, rng)
ell = blocked_ell_matching(a, rng)

profiles, stats = derive_all(
    (name, kern, kern.stats_for(mat, N))
    for name, kern, mat in (
        ("MMA (octet)", OctetSpmmKernel(), a),
        ("WMMA (warp)", WmmaSpmmKernel(), a),
        ("CUDA (fpu)", FpuSpmmKernel(), a),
        ("Blocked-ELL", BlockedEllSpmmKernel(), ell),
    )
)

print(f"SpMM guideline profile (V={V}, 2048x1024x{N} @ 90% — Table 2 layout)\n")
print(format_table(guidelines_table(profiles)))
print_detail(profiles, stats)

# --- SDDMM: A[2048x256] x B[256x1024] ∘ C, 90% sparsity ----------------------
topo = generate_topology((2048 // V, 1024), 0.9, rng)
cv = cvse_from_csr_topology(topo, V, rng)
mask = ColumnVectorSparseMatrix(cv.shape, V, cv.row_ptr, cv.col_idx, None)

profiles, stats = derive_all(
    (name, kern, kern.stats_for(mask, K))
    for name, kern in (
        ("MMA (reg)", OctetSddmmKernel(variant="reg")),
        ("MMA (shfl)", OctetSddmmKernel(variant="shfl")),
        ("MMA (arch)", OctetSddmmKernel(variant="arch")),
        ("WMMA", WmmaSddmmKernel()),
        ("CUDA (fpu)", FpuSddmmKernel()),
    )
)

print(f"\n\nSDDMM guideline profile (V={V}, 2048x{K}x1024 @ 90% — Table 3 layout)\n")
print(format_table(guidelines_table(profiles)))
print_detail(profiles, stats)
