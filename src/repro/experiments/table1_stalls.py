"""Table 1: stall reasons in the Blocked-ELL SpMM kernel at block 4.

Profile on A[2048x1024] x B[1024x256], 90% sparsity; the paper measures
No Instruction 42.6%, Wait 21.0%, Short Scoreboard 11.9%.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats.blocked_ell import BlockedEllMatrix
from ..kernels.cusparse import BlockedEllSpmmKernel
from ..profiler import derive_profile
from .common import ExperimentResult

__all__ = ["run"]

PAPER = {"No Instruction": 42.6, "Wait": 21.0, "Short Scoreboard": 11.9}


def run(rng: Optional[np.random.Generator] = None) -> ExperimentResult:
    """Regenerate Table 1 (Blocked-ELL stall reasons)."""
    rng = rng or np.random.default_rng(1)
    ell = BlockedEllMatrix.random((2048, 1024), 4, 0.9, rng)
    kern = BlockedEllSpmmKernel()
    rep = derive_profile(kern.stats_for(ell, 256), kern._model)

    res = ExperimentResult(
        name="table1",
        paper_artifact="Table 1",
        description="Stall reasons, Blocked-ELL SpMM, block size 4 (2048x1024x256, 90%)",
    )
    res.rows.append(
        {
            "Block Size": 4,
            "No Instruction": f"{rep.no_instruction_pct:.1f}%",
            "Wait": f"{rep.wait_pct:.1f}%",
            "Short Scoreboard": f"{rep.short_scoreboard_pct:.1f}%",
        }
    )
    res.notes["paper"] = " / ".join(f"{k}: {v}%" for k, v in PAPER.items())
    return res
