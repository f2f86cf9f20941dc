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

Layout: fragments and accumulators are batch-last, the sub-step (or
wmma tile) axis innermost in memory, and reach
:func:`mma_m8n8k4_batched` as transposed ``(batch, 8, 4)``/``(batch,
4, 8)`` views, so every elementwise pass of the MMA runs the batch at
unit stride.  Slot ``g * group + c`` of the flat fragment space sits at
``c * num_groups + g`` in that storage; one k-step's B fragments are a
single column gather through that map, its pad slots reading a zero
column appended to B.
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
    """Operands zero-padded to ``k_pad``; B gains one zero column, the
    column every pad slot of :func:`_slot_columns` reads."""
    m, k = a16.shape
    a_pad = np.zeros((m, k_pad), dtype=np.float16)
    a_pad[:, :k] = a16
    b_pad = np.zeros((k_pad, b16.shape[1] + 1), dtype=np.float16)
    b_pad[:k, :-1] = b16
    return a_pad, b_pad


def _transposed_slots(lay: GroupLayout) -> np.ndarray:
    """Batch-last position ``c * num_groups + g`` of each slot ``g * group + c``."""
    return (lay.slots % lay.group) * lay.num_groups + lay.slots // lay.group


def _slot_columns(lay: GroupLayout, col_idx: np.ndarray, pad_col: int) -> np.ndarray:
    """B column feeding each batch-last slot; pad slots read ``pad_col``."""
    cols = np.full(lay.num_groups * lay.group, pad_col, dtype=np.int64)
    cols[_transposed_slots(lay)] = col_idx
    return cols


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
    # switched-RHS fragments per k-group and active row: [k-group, k, v, row]
    a3 = a_pad.reshape(plan.num_vector_rows, v, plan.k_pad)[lay.rows_act]
    frag_a = np.zeros((k4, 4, 8, R), dtype=np.float16)
    frag_a[:, :, :v] = a3.reshape(R, v, k4, 4).transpose(2, 3, 1, 0)
    # switched-LHS fragments of one k-group [k, column, sub-step]: one
    # gather of compacted B columns (pad slots read the zero column)
    cols = _slot_columns(lay, mask.col_idx, b16.shape[1])
    accs = np.zeros((8, 8, T), dtype=np.float32)           # [v, column, sub-step]
    acc_view = accs.T                                      # (sub-step, column, v)
    for j in range(k4):  # serial k accumulation, reference loop order
        b_grp = np.take(b_pad[4 * j : 4 * j + 4], cols, axis=1)
        batch_a = np.take(frag_a[j], plan.row_of_substep, axis=2)
        acc_view += mma_m8n8k4_batched(
            b_grp.reshape(4, 8, T).T, batch_a.transpose(2, 0, 1), stats=tc, **sim_kwargs
        )
    out_vals[:] = accs.reshape(8, 8 * T)[:v, _transposed_slots(lay)].T
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
    # Mat_a fragments per k-step and active row: [k-step, v, k, k-slice, row]
    a3 = a_pad.reshape(plan.num_vector_rows, v, plan.k_pad)[lay.rows_act]
    a_frags = np.zeros((k16, 8, 4, 4, R), dtype=np.float16)
    a_frags[:, :v] = a3.reshape(R, v, k16, 4, 4).transpose(2, 1, 4, 3, 0)
    # Mat_b fragments of one k-step: one gather of compacted columns
    # (pad slots read the zero column), [k-slice, k, octet, column,
    # tile], then relaid [k, column, k-slice, octet, tile]
    cols = _slot_columns(lay, mask.col_idx, b16.shape[1])
    acc = np.zeros((8, 4, 8, T), dtype=np.float32)          # [v, octet, column, tile]
    for kk in range(k16):  # serial wmma calls, then k-slices within
        # batch (k-slice, octet, tile), tile innermost
        batch_a = np.repeat(np.take(a_frags[kk], plan.row_of_tile, axis=3), 4, axis=2)
        b_step = np.take(b_pad[16 * kk : 16 * kk + 16], cols, axis=1)
        batch_b = np.ascontiguousarray(b_step.reshape(4, 4, 4, 8, T).transpose(1, 3, 0, 2, 4))
        partial = mma_m8n8k4_batched(
            batch_a.reshape(8, 4, -1).transpose(2, 0, 1),
            batch_b.reshape(4, 8, -1).transpose(2, 0, 1),
            stats=tc,
        )
        partial = partial.reshape(4, 4, T, 8, 8).transpose(0, 3, 1, 4, 2)
        for j in range(4):  # [k-slice][v, octet, column, tile]
            acc += partial[j]
    out_vals[:] = acc.reshape(8, 32 * T)[:v, _transposed_slots(lay)].T
    return out_vals, tc
