"""Table 3: the five guidelines across SDDMM implementations (V = 4, 8).

Benchmark A[2048x256] x B[256x1024] with C[2048x1024] at 90% sparsity.
Rows: MMA (octet, reg variant — §7.3.2 notes the three variants look
alike on these metrics), CUDA (FPU baseline), WMMA.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datasets.dlmc import generate_topology
from ..formats.cvse import ColumnVectorSparseMatrix
from ..formats.conversions import cvse_from_csr_topology
from ..kernels.sddmm_fpu import FpuSddmmKernel
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.sddmm_wmma import WmmaSddmmKernel
from ..profiler import derive_profile
from ..profiler.report import guidelines_table
from .common import ExperimentResult

__all__ = ["run"]

PAPER = {
    (4, "MMA"): dict(ni=0.8, blocks=16384, wait=10.7, ssb=2.1, spr=3.83),
    (4, "CUDA"): dict(ni=6.1, blocks=16384, wait=28.1, ssb=2.5, spr=3.53),
    (4, "WMMA"): dict(ni=0.3, blocks=16384, wait=10.6, ssb=14.4, spr=3.82),
    (8, "MMA"): dict(ni=1.0, blocks=8192, wait=11.0, ssb=1.9, spr=9.25),
    (8, "CUDA"): dict(ni=7.3, blocks=16384, wait=24.6, ssb=3.1, spr=3.33),
    (8, "WMMA"): dict(ni=0.4, blocks=8192, wait=9.5, ssb=17.9, spr=9.26),
}


def run(rng: Optional[np.random.Generator] = None) -> ExperimentResult:
    """Regenerate Table 3 (five guidelines, SDDMM kernels)."""
    rng = rng or np.random.default_rng(3)
    k = 256
    res = ExperimentResult(
        name="table3",
        paper_artifact="Table 3",
        description="Five-guideline profile of the SDDMM kernels (2048x256x1024, 90%)",
    )
    for v in (4, 8):
        topo = generate_topology((2048 // v, 1024), 0.9, rng)
        cv = cvse_from_csr_topology(topo, v, rng)
        mask = ColumnVectorSparseMatrix(cv.shape, v, cv.row_ptr, cv.col_idx, None)
        reports = []
        for name, kern in (
            ("MMA", OctetSddmmKernel(variant="reg")),
            ("CUDA", FpuSddmmKernel()),
            ("WMMA", WmmaSddmmKernel()),
        ):
            rep = derive_profile(kern.stats_for(mask, k), kern._model)
            rep.name = f"{name} (V={v})"
            reports.append(rep)
        res.rows.extend(guidelines_table(reports))
    res.notes["paper"] = {f"{name} V={v}": vals for (v, name), vals in PAPER.items()}
    return res
