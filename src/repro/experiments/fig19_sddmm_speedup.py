"""Figure 19: SDDMM speedup over cublasHgemm.

Grid: V in {1, 2, 4, 8} x K in {64, 128, 256} x sparsity; kernels:
"fpu" (§6.1), "wmma" (§6.2), and the three octet variants
"mma (reg)" / "mma (shfl)" / "mma (arch)" (§6.3).  At V = 1 the octet
kernels degenerate (the paper's figure shows fpu/wmma-dominated
behaviour there) but remain runnable.

As in fig17, every kernel is priced from the entry's topology alone:
nothing is drawn, and the mask sits on the entry's own CSR arrays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..datasets.benchmark_suite import K_SIZES, build_sddmm_problem
from ..datasets.dlmc import SPARSITIES, DlmcEntry
from ..kernels.gemm import DenseGemmKernel
from ..kernels.sddmm_fpu import FpuSddmmKernel
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.sddmm_wmma import WmmaSddmmKernel
from .common import ExperimentResult, geomean, suite_for

__all__ = ["run"]

VECTOR_LENGTHS = (1, 2, 4, 8)


def _kernels() -> Dict[str, object]:
    return {
        "fpu": FpuSddmmKernel(),
        "wmma": WmmaSddmmKernel(),
        "mma (reg)": OctetSddmmKernel(variant="reg"),
        "mma (shfl)": OctetSddmmKernel(variant="shfl"),
        "mma (arch)": OctetSddmmKernel(variant="arch"),
    }


def _cell(v: int, k: int, s: float, entries: List[DlmcEntry]) -> Dict[str, object]:
    """One (V, K, sparsity) grid cell."""
    hgemm = DenseGemmKernel()
    kernels = _kernels()
    speedups: Dict[str, list] = {name: [] for name in kernels}
    for entry in entries:
        prob = build_sddmm_problem(entry, v, k)
        t_dense = hgemm._model.estimate(hgemm.stats_for_shape(prob.m, k, prob.n)).time_us
        for name, kern in kernels.items():
            t = kern._model.estimate(kern.stats_for(prob.mask, k)).time_us
            speedups[name].append(t_dense / t)
    row: Dict[str, object] = {"V": v, "K": k, "sparsity": s}
    row.update({name: round(geomean(vals), 3) for name, vals in speedups.items()})
    return row


def run(
    quick: bool = True,
    vector_lengths: Sequence[int] = VECTOR_LENGTHS,
    k_sizes: Sequence[int] = K_SIZES,
    sparsities: Sequence[float] = SPARSITIES,
) -> ExperimentResult:
    """Regenerate Figure 19 (SDDMM speedup grid, geomean per cell) and
    its headline geomean ratios."""
    suite = suite_for(quick, sparsities)
    res = ExperimentResult(
        name="fig19",
        paper_artifact="Figure 19",
        description="SDDMM speedup over cublasHgemm (geomean across the DLMC suite)",
    )
    by_sparsity = {s: [e for e in suite if abs(e.sparsity - s) < 1e-9] for s in sparsities}
    res.rows.extend(
        _cell(v, k, s, by_sparsity[s])
        for v in vector_lengths
        for k in k_sizes
        for s in sparsities
    )

    ratios_fpu, ratios_wmma = [], []
    for r in res.rows:
        if r["V"] >= 2:
            ratios_fpu.append(r["mma (reg)"] / r["fpu"])
            ratios_wmma.append(r["mma (reg)"] / r["wmma"])
    res.notes["mma/fpu range"] = (
        f"{min(ratios_fpu):.2f}-{max(ratios_fpu):.2f} (paper: 1.27-3.03)"
    )
    res.notes["mma/wmma range"] = (
        f"{min(ratios_wmma):.2f}-{max(ratios_wmma):.2f} (paper: 0.93-1.44)"
    )
    return res
