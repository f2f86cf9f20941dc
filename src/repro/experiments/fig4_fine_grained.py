"""Figure 4: speedup over cuBLAS with fine-grained sparsity (V = 1).

Four panels: SpMM / SDDMM x single / half precision; baselines Sputnik
(our FPU kernels at V = 1) and cuSPARSE (CSR kernels); dense reference
cublasSgemm / cublasHgemm.  The paper's takeaways the harness should
reproduce:

* single precision: both libraries achieve good speedup above ~80%;
* half precision: Sputnik only beats cublasHgemm at extreme sparsity,
  and cuSPARSE is lower still;
* SDDMM half: the modified Sputnik stays below cublasHgemm.

Every kernel is priced from the entry's topology alone: nothing is
drawn.
"""

from __future__ import annotations

from typing import Sequence

from ..datasets.benchmark_suite import build_sddmm_problem, build_spmm_problem
from ..datasets.dlmc import SPARSITIES
from ..kernels.cusparse import CusparseCsrSpmmKernel, CusparseSddmmKernel
from ..kernels.gemm import DenseGemmKernel
from ..kernels.sddmm_fpu import FpuSddmmKernel
from ..kernels.spmm_fpu import FpuSpmmKernel
from .common import ExperimentResult, geomean, suite_for

__all__ = ["run"]


def run(
    quick: bool = True,
    n: int = 256,
    k: int = 256,
    sparsities: Sequence[float] = SPARSITIES,
) -> ExperimentResult:
    """Regenerate Figure 4 (fine-grained speedups over cuBLAS)."""
    suite = suite_for(quick, sparsities)
    res = ExperimentResult(
        name="fig4",
        paper_artifact="Figure 4",
        description="Speedup over cuBLAS with fine-grained sparsity (V=1, geomean)",
    )

    gemm = {p: DenseGemmKernel(precision=p) for p in ("single", "half")}
    spmm = {p: FpuSpmmKernel(precision=p) for p in ("single", "half")}
    sddmm = {p: FpuSddmmKernel(precision=p) for p in ("single", "half")}
    cu_spmm = {p: CusparseCsrSpmmKernel(precision=p) for p in ("single", "half")}
    cu_sddmm = CusparseSddmmKernel(precision="single")

    for op in ("SpMM", "SDDMM"):
        for prec in ("single", "half"):
            for s in sparsities:
                sp_sput, sp_cu = [], []
                for entry in (e for e in suite if abs(e.sparsity - s) < 1e-9):
                    if op == "SpMM":
                        prob = build_spmm_problem(entry, 1, n)
                        t_d = gemm[prec]._model.estimate(
                            gemm[prec].stats_for_shape(prob.m, prob.k, n)
                        ).time_us
                        t_s = spmm[prec]._model.estimate(
                            spmm[prec].stats_for(prob.a_cvse, n)
                        ).time_us
                        t_c = cu_spmm[prec]._model.estimate(
                            cu_spmm[prec].stats_for(entry.csr, n)
                        ).time_us
                        sp_cu.append(t_d / t_c)
                    else:
                        prob = build_sddmm_problem(entry, 1, k)
                        t_d = gemm[prec]._model.estimate(
                            gemm[prec].stats_for_shape(prob.m, k, prob.n)
                        ).time_us
                        t_s = sddmm[prec]._model.estimate(
                            sddmm[prec].stats_for(prob.mask, k)
                        ).time_us
                        if prec == "single":
                            t_c = cu_sddmm._model.estimate(
                                cu_sddmm.stats_for(entry.csr, k)
                            ).time_us
                            sp_cu.append(t_d / t_c)
                    sp_sput.append(t_d / t_s)
                res.rows.append(
                    {
                        "op": op,
                        "precision": prec,
                        "sparsity": s,
                        "sputnik": round(geomean(sp_sput), 3),
                        "cusparse": round(geomean(sp_cu), 3) if sp_cu else None,
                    }
                )
    return res
