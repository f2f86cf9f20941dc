"""Ablations over the octet kernels' design choices.

DESIGN.md calls out the octet designs' load-bearing decisions; each
ablation here isolates one of them on the §7.2.2 reference benchmark
(A 2048x1024 x B 1024x256 SpMM / 2048x256x1024 SDDMM at 90%):

* **tile_k** — the shared-memory staging depth of the SpMM (§5.4 picks
  TileK = 32; smaller strides stage more often, larger strides waste
  residue work and registers);
* **ilp_fence** — §5.4's register trick: issuing all TileK/4 loads
  before a ``__threadfence_block`` raises the load/compute ILP from ~2
  (compiler register reuse) to TileK/4;
* **sddmm_tile_n** — §6.4's TileN = 32 "balance between the data reuse
  ratio and the number of CTA" ("any multiple of 8 is acceptable");
* **sddmm_variant** — the inverted-pattern remedies (reg / shfl / arch)
  at a glance (the full grid is Figure 19).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..datasets.dlmc import generate_topology
from ..formats.conversions import cvse_from_csr_topology
from ..formats.cvse import ColumnVectorSparseMatrix
from ..kernels.sddmm_octet import SDDMM_VARIANTS, OctetSddmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from .common import ExperimentResult

__all__ = ["run"]


def _spmm_time(a, n, tile_k=None, ilp=None):
    kern = OctetSpmmKernel()
    if tile_k is not None:
        kern.TILE_K = tile_k
    st = kern.stats_for(a, n)
    if ilp is not None:
        st = dataclasses.replace(st, ilp=ilp)
    return kern._model.estimate(st).time_us


def run(
    rng: Optional[np.random.Generator] = None,
    tile_ks: Sequence[int] = (8, 16, 32, 64),
    sddmm_tile_ns: Sequence[int] = (8, 16, 32, 64),
) -> ExperimentResult:
    """Ablation table over the octet kernels' design knobs."""
    rng = rng or np.random.default_rng(8)
    res = ExperimentResult(
        name="ablations",
        paper_artifact="design-choice ablations (DESIGN.md)",
        description="Octet-kernel design knobs on the §7.2.2 reference benchmark",
    )

    # --- SpMM: TileK sweep ---------------------------------------------------
    topo = generate_topology((512, 1024), 0.9, rng)
    a = cvse_from_csr_topology(topo, 4, rng)
    base = _spmm_time(a, 256, tile_k=32)
    for tk in tile_ks:
        t = _spmm_time(a, 256, tile_k=tk)
        res.rows.append(
            {"ablation": "spmm tile_k", "setting": tk,
             "time_us": round(t, 2), "vs default": round(base / t, 3)}
        )

    # --- SpMM: the §5.4 ILP fence --------------------------------------------
    for label, ilp in (("fence (TileK/4 chains)", 8.0), ("compiler reuse (~2)", 2.0),
                       ("fully serial", 1.0)):
        t = _spmm_time(a, 256, ilp=ilp)
        res.rows.append(
            {"ablation": "spmm ilp fence", "setting": label,
             "time_us": round(t, 2), "vs default": round(base / t, 3)}
        )

    # --- SDDMM: TileN sweep -----------------------------------------------------
    topo = generate_topology((512, 1024), 0.9, rng)
    cv = cvse_from_csr_topology(topo, 4, rng)
    mask = ColumnVectorSparseMatrix(cv.shape, 4, cv.row_ptr, cv.col_idx, None)
    kern = OctetSddmmKernel()
    t_base = kern._model.estimate(kern.stats_for(mask, 256)).time_us
    for tn in sddmm_tile_ns:
        kern = OctetSddmmKernel()
        kern.TILE_N = tn
        t = kern._model.estimate(kern.stats_for(mask, 256)).time_us
        res.rows.append(
            {"ablation": "sddmm tile_n", "setting": tn,
             "time_us": round(t, 2), "vs default": round(t_base / t, 3)}
        )

    # --- SDDMM: inverted-pattern variants ------------------------------------------
    for variant in SDDMM_VARIANTS:
        kern = OctetSddmmKernel(variant=variant)
        t = kern._model.estimate(kern.stats_for(mask, 256)).time_us
        res.rows.append(
            {"ablation": "sddmm variant", "setting": variant,
             "time_us": round(t, 2), "vs default": round(t_base / t, 3)}
        )
    return res
