"""Figure 17: SpMM speedup over cublasHgemm.

Grid: V in {1, 2, 4, 8} x N in {64, 128, 256} x sparsity in
{0.5, 0.7, 0.8, 0.9, 0.95, 0.98}; kernels: "fpu" (Sputnik-extended),
"blocked-ELL" (cuSPARSE), "mma" (TCU 1-D Octet Tiling; V >= 2 only —
the octet design computes V output columns per TCU tile and degenerates
at V = 1, matching the paper's figure which omits it there).

Each cell is the geometric mean of the speedup over the suite's
matrices, following Gale et al. (the solid lines of the figure).

Every kernel is priced from the entry's topology alone.  The problems
are built with ``operands=False``: nothing is drawn, and ``a_cvse`` is
the mask on the entry's own CSR arrays.  The Blocked-ELL baseline is
priced from its matched shape, with no matrix built.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..datasets.benchmark_suite import N_SIZES, build_spmm_problem
from ..datasets.dlmc import SPARSITIES, DlmcEntry
from ..formats.blocked_ell import BlockedEllMatrix
from ..kernels.cusparse import BlockedEllSpmmKernel
from ..kernels.gemm import DenseGemmKernel
from ..kernels.spmm_fpu import FpuSpmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from .common import ExperimentResult, geomean, suite_for

__all__ = ["run"]

VECTOR_LENGTHS = (1, 2, 4, 8)


def _cell(v: int, n: int, s: float, entries: List[DlmcEntry]) -> Dict[str, object]:
    """One (V, N, sparsity) grid cell."""
    hgemm = DenseGemmKernel()
    fpu = FpuSpmmKernel()
    octet = OctetSpmmKernel()
    bell = BlockedEllSpmmKernel()
    sp_f, sp_b, sp_m = [], [], []
    for entry in entries:
        prob = build_spmm_problem(entry, v, n, operands=False)
        _, k_ell, width = BlockedEllMatrix.matched_shape(prob.a_cvse.shape, v, prob.a_cvse.sparsity)
        t_dense = hgemm._model.estimate(hgemm.stats_for_shape(prob.m, prob.k, n)).time_us
        t_f = fpu._model.estimate(fpu.stats_for(prob.a_cvse, n)).time_us
        t_b = bell._model.estimate(bell.stats_for_shape(prob.m, k_ell, v, width, n)).time_us
        sp_f.append(t_dense / t_f)
        sp_b.append(t_dense / t_b)
        if v >= 2:
            t_m = octet._model.estimate(octet.stats_for(prob.a_cvse, n)).time_us
            sp_m.append(t_dense / t_m)
    row: Dict[str, object] = {
        "V": v,
        "N": n,
        "sparsity": s,
        "fpu": round(geomean(sp_f), 3),
        "blocked-ELL": round(geomean(sp_b), 3),
    }
    row["mma"] = round(geomean(sp_m), 3) if sp_m else None
    return row


def run(
    quick: bool = True,
    vector_lengths: Sequence[int] = VECTOR_LENGTHS,
    n_sizes: Sequence[int] = N_SIZES,
    sparsities: Sequence[float] = SPARSITIES,
) -> ExperimentResult:
    """Regenerate Figure 17 (SpMM speedup grid, geomean per cell) and
    its headline geomean ratios (the abstract's 1.71-7.19x /
    1.34-4.51x)."""
    suite = suite_for(quick, sparsities)
    res = ExperimentResult(
        name="fig17",
        paper_artifact="Figure 17",
        description="SpMM speedup over cublasHgemm (geomean across the DLMC suite)",
    )
    by_sparsity = {s: [e for e in suite if abs(e.sparsity - s) < 1e-9] for s in sparsities}
    res.rows.extend(
        _cell(v, n, s, by_sparsity[s])
        for v in vector_lengths
        for n in n_sizes
        for s in sparsities
    )

    ratios_bell, ratios_fpu = [], []
    for r in res.rows:
        if r["mma"]:
            ratios_bell.append(r["mma"] / r["blocked-ELL"])
            ratios_fpu.append(r["mma"] / r["fpu"])
    res.notes["mma/blocked-ELL range"] = (
        f"{min(ratios_bell):.2f}-{max(ratios_bell):.2f} (paper: 1.71-7.19)"
    )
    res.notes["mma/fpu range"] = (
        f"{min(ratios_fpu):.2f}-{max(ratios_fpu):.2f} (paper: 1.34-4.51)"
    )
    return res
