"""Table 2: the five guidelines across SpMM implementations (V = 4, 8).

Benchmark A[2048x1024] x B[1024x256], 90% sparsity.  Rows: MMA (octet),
CUDA (FPU baseline), Blocked-ELL.  Columns: "No Instruction" (guideline
I), "# Thread Block" (II), "Wait" (III), "Short Scoreboard" (IV),
"Sectors/Req" (V).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datasets.dlmc import generate_topology
from ..formats.conversions import blocked_ell_matching, cvse_from_csr_topology
from ..kernels.cusparse import BlockedEllSpmmKernel
from ..kernels.spmm_fpu import FpuSpmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from ..profiler import derive_profile
from ..profiler.report import guidelines_table
from .common import ExperimentResult

__all__ = ["run"]

#: the paper's measured values, for side-by-side inspection
PAPER = {
    (4, "MMA"): dict(ni=1.1, blocks=2048, wait=4.7, ssb=4.5, spr=12.56),
    (4, "CUDA"): dict(ni=11.0, blocks=2048, wait=11.6, ssb=2.6, spr=4.04),
    (4, "Blocked-ELL"): dict(ni=42.6, blocks=1024, wait=21.0, ssb=11.9, spr=14.92),
    (8, "MMA"): dict(ni=1.1, blocks=1024, wait=6.2, ssb=2.6, spr=13.22),
    (8, "CUDA"): dict(ni=52.2, blocks=1024, wait=8.3, ssb=2.0, spr=4.27),
    (8, "Blocked-ELL"): dict(ni=35.1, blocks=512, wait=16.2, ssb=12.1, spr=13.85),
}


def run(rng: Optional[np.random.Generator] = None) -> ExperimentResult:
    """Regenerate Table 2 (five guidelines, SpMM kernels)."""
    rng = rng or np.random.default_rng(2)
    n = 256
    res = ExperimentResult(
        name="table2",
        paper_artifact="Table 2",
        description="Five-guideline profile of the SpMM kernels (2048x1024x256, 90%)",
    )
    for v in (4, 8):
        topo = generate_topology((2048 // v, 1024), 0.9, rng)
        a = cvse_from_csr_topology(topo, v, rng)
        ell = blocked_ell_matching(a, rng)
        kernels = {
            "MMA": (OctetSpmmKernel(), a),
            "CUDA": (FpuSpmmKernel(), a),
        }
        reports = []
        for name, (kern, mat) in kernels.items():
            rep = derive_profile(kern.stats_for(mat, n), kern._model)
            rep.name = f"{name} (V={v})"
            reports.append(rep)
        bk = BlockedEllSpmmKernel()
        rep = derive_profile(bk.stats_for(ell, n), bk._model)
        rep.name = f"Blocked-ELL (V={v})"
        reports.append(rep)
        res.rows.extend(guidelines_table(reports))
    res.notes["paper"] = {
        f"{name} V={v}": vals for (v, name), vals in PAPER.items()
    }
    return res
