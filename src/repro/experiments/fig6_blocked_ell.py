"""Figure 6: Blocked-ELL SpMM speedup over cuBLAS by block size.

Block sizes {4, 8, 16} across the sparsity grid: the cuSPARSE
Blocked-ELL kernel only delivers practical speedup once the block size
reaches 8-16 — the wrestling between kernel performance (wants big
blocks) and model quality (wants small grains) that motivates the
column-vector encoding.
"""

from __future__ import annotations

from typing import Sequence

from ..datasets.dlmc import SPARSITIES
from ..formats.blocked_ell import BlockedEllMatrix
from ..kernels.cusparse import BlockedEllSpmmKernel
from ..kernels.gemm import DenseGemmKernel
from .common import ExperimentResult, geomean, suite_for

__all__ = ["run", "BLOCK_SIZES"]

BLOCK_SIZES = (4, 8, 16)


def run(
    quick: bool = True,
    n: int = 256,
    block_sizes: Sequence[int] = BLOCK_SIZES,
    sparsities: Sequence[float] = SPARSITIES,
) -> ExperimentResult:
    """Regenerate Figure 6 (Blocked-ELL speedup by block size).

    The Blocked-ELL model reads only the matched shape, so no matrix is
    built (:meth:`BlockedEllSpmmKernel.stats_for_shape`).
    """
    suite = suite_for(quick, sparsities)
    hgemm = DenseGemmKernel()
    bell = BlockedEllSpmmKernel()

    res = ExperimentResult(
        name="fig6",
        paper_artifact="Figure 6",
        description="Blocked-ELL SpMM speedup over cublasHgemm by block size (geomean)",
    )
    for b in block_sizes:
        for s in sparsities:
            speedups = []
            for entry in (e for e in suite if abs(e.sparsity - s) < 1e-9):
                rows, cols = entry.shape
                m = rows * b  # match §7.1.1: logical rows = topo rows x block
                k = max(b, (cols // b) * b)
                _, _, width = BlockedEllMatrix.matched_shape((m, k), b, s)
                t_d = hgemm._model.estimate(hgemm.stats_for_shape(m, k, n)).time_us
                t_b = bell._model.estimate(bell.stats_for_shape(m, k, b, width, n)).time_us
                speedups.append(t_d / t_b)
            res.rows.append(
                {"block": b, "sparsity": s, "blocked-ELL": round(geomean(speedups), 3)}
            )
    res.notes["expectation"] = "block=4 below 1.0 except extreme sparsity; block=16 comfortably above"
    return res
