"""Compiled execution plans for the simulated SDDMM kernels.

Same split as :mod:`repro.plans.spmm`: the compiler flattens the
interpreted per-row walk into slot/gather arrays once.  The executor
streams over K as the kernels do (§6.2-6.4): one batched tensor-core
call per k-step covers every output tile, and its result goes straight
into the tiles' FP32 accumulators, so only one k-step's fragments are
ever gathered.  The accumulators scatter back through the slot map.  SDDMM
outputs are *assigned* (the references write ``out_vals[lo:hi] = ...``
into a zero buffer), so the plan path scatters with ``=`` — unlike
the SpMM side, where ``+=`` is load-bearing for signed-zero parity.

The k dimension is uniform across rows (every row pads K the same
way), so the k-slice accumulation needs no masking — only the
column-group dimension is ragged and goes through the slot map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..hardware.tensor_core import TensorCoreStats, mma_m8n8k4_batched
from .core import cached_plan
from .layout import GroupLayout, group_layout, row_of_group

__all__ = [
    "SddmmOctetPlan",
    "SddmmWmmaPlan",
    "sddmm_octet_plan",
    "sddmm_wmma_plan",
    "execute_sddmm_octet",
    "execute_sddmm_wmma",
]


@dataclass(frozen=True)
class SddmmOctetPlan:
    """Flattened octet-tiling SDDMM schedule (8-column sub-steps)."""

    vector_length: int
    num_vector_rows: int
    k_pad: int                #: K padded to a multiple of 4
    layout: GroupLayout
    #: active-row position owning each flat sub-step
    row_of_substep: np.ndarray


@dataclass(frozen=True)
class SddmmWmmaPlan:
    """Flattened warp-tiling SDDMM schedule (32-column wmma tiles)."""

    vector_length: int
    num_vector_rows: int
    k_pad: int                #: K padded to a multiple of 16
    layout: GroupLayout
    row_of_tile: np.ndarray


def _compile_sddmm_octet(kern, mask, k: int) -> SddmmOctetPlan:
    layout = group_layout(mask.vector_row_nnz(), 8)
    return SddmmOctetPlan(
        vector_length=mask.vector_length,
        num_vector_rows=mask.num_vector_rows,
        k_pad=-(-k // 4) * 4,
        layout=layout,
        row_of_substep=row_of_group(layout),
    )


def sddmm_octet_plan(kern, mask, k: int) -> SddmmOctetPlan:
    """Cached octet SDDMM plan for ``kern`` on ``mask`` with inner dim ``k``."""
    return cached_plan(
        "sddmm-octet", kern, mask, (int(k),), lambda: _compile_sddmm_octet(kern, mask, k)
    )


def _compile_sddmm_wmma(kern, mask, k: int) -> SddmmWmmaPlan:
    layout = group_layout(mask.vector_row_nnz(), 32)
    return SddmmWmmaPlan(
        vector_length=mask.vector_length,
        num_vector_rows=mask.num_vector_rows,
        k_pad=-(-k // 16) * 16,
        layout=layout,
        row_of_tile=row_of_group(layout),
    )


def sddmm_wmma_plan(kern, mask, k: int) -> SddmmWmmaPlan:
    """Cached wmma SDDMM plan for ``kern`` on ``mask`` with inner dim ``k``."""
    return cached_plan(
        "sddmm-wmma", kern, mask, (int(k),), lambda: _compile_sddmm_wmma(kern, mask, k)
    )


def _padded_operands(a16, b16, k_pad: int) -> Tuple[np.ndarray, np.ndarray]:
    m, k = a16.shape
    a_pad = np.zeros((m, k_pad), dtype=np.float16)
    a_pad[:, :k] = a16
    b_pad = np.zeros((k_pad, b16.shape[1]), dtype=np.float16)
    b_pad[:k] = b16
    return a_pad, b_pad


def execute_sddmm_octet(
    plan: SddmmOctetPlan,
    a16: np.ndarray,
    b16: np.ndarray,
    mask,
    sim_kwargs: Dict,
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run an octet SDDMM plan; returns FP32 values and TCU stats.

    ``sim_kwargs`` carries the variant's SWITCH discipline (the
    ``arch`` flags) straight into the batched call — variant semantics
    stay at execution time, never inside the cached plan.
    """
    v = plan.vector_length
    tc = TensorCoreStats()
    out_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    lay = plan.layout
    T = lay.num_groups
    if T == 0:
        return out_vals, tc
    k4 = plan.k_pad // 4
    a_pad, b_pad = _padded_operands(a16, b16, plan.k_pad)
    R = lay.rows_act.size
    # switched-RHS fragments per active row: (R, k4, 4, 8)
    a3 = a_pad.reshape(plan.num_vector_rows, v, plan.k_pad)[lay.rows_act]
    frag_a = np.zeros((R, k4, 4, 8), dtype=np.float16)
    frag_a[..., :v] = a3.transpose(0, 2, 1).reshape(R, k4, 4, v)
    # switched-LHS fragments of one k-group: compacted B columns through
    # the slot map (the pad slots are never written, so they stay zero)
    b_grp = np.zeros((T * 8, 4), dtype=np.float16)
    accs = np.zeros((T, 8, 8), dtype=np.float32)
    for j in range(k4):  # serial k accumulation, reference loop order
        b_grp[lay.slots] = b_pad[4 * j : 4 * j + 4, mask.col_idx].T
        accs += mma_m8n8k4_batched(
            b_grp.reshape(T, 8, 4), frag_a[plan.row_of_substep, j], stats=tc, **sim_kwargs
        )
    out_vals[:] = accs.reshape(T * 8, 8)[lay.slots][:, :v]
    return out_vals, tc


def execute_sddmm_wmma(
    plan: SddmmWmmaPlan, a16: np.ndarray, b16: np.ndarray, mask
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run a wmma SDDMM plan; returns FP32 values and TCU stats."""
    v = plan.vector_length
    tc = TensorCoreStats()
    out_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    lay = plan.layout
    T = lay.num_groups
    if T == 0:
        return out_vals, tc
    k16 = plan.k_pad // 16
    a_pad, b_pad = _padded_operands(a16, b16, plan.k_pad)
    R = lay.rows_act.size
    # Mat_a fragments per active row and k-step: (R, k16, j, 8, 4)
    a3 = a_pad.reshape(plan.num_vector_rows, v, plan.k_pad)[lay.rows_act]
    a_steps = np.zeros((R, k16, 8, 16), dtype=np.float16)
    a_steps[:, :, :v, :] = a3.reshape(R, v, k16, 16).transpose(0, 2, 1, 3)
    a_frags = a_steps.reshape(R, k16, 8, 4, 4).transpose(0, 1, 3, 2, 4)
    # Mat_b fragments of one k-step: compacted columns through the slot
    # map (pad slots stay zero), ordered (tile, octet, k-slice) to match
    # the wmma decomposition
    b_step = np.zeros((T * 32, 16), dtype=np.float16)
    acc = np.zeros((T, 4, 8, 8), dtype=np.float32)     # [t, octet, 8-row, 8-col]
    for kk in range(k16):  # serial wmma calls, then k-slices within
        batch_a = np.tile(a_frags[plan.row_of_tile, kk], (1, 4, 1, 1)).reshape(-1, 8, 4)
        b_step[lay.slots] = b_pad[16 * kk : 16 * kk + 16, mask.col_idx].T
        batch_b = b_step.reshape(T, 4, 8, 4, 4).transpose(0, 1, 3, 4, 2).reshape(-1, 4, 8)
        partial = mma_m8n8k4_batched(batch_a, batch_b, stats=tc)
        partial = partial.reshape(T, 4, 4, 8, 8)       # [t, octet, j]
        for j in range(4):
            acc += partial[:, :, j]
    out_vals[:] = acc.transpose(0, 1, 3, 2).reshape(T * 32, 8)[lay.slots][:, :v]
    return out_vals, tc
