"""Compiled execution plans for the simulated SpMM kernels.

Each compiler flattens the per-row interpreted walk of its kernel
(kept as a test oracle in ``tests/oracles``) into index arrays once per
(kernel fingerprint, structure signature).  The matching executor
streams over K as the kernels do: per output tile it gathers the B
fragments once, then walks the accumulation levels — level ``d`` holds
the ``d``-th k-group of every row that has one — with one batched
tensor-core call per level, added straight into the rows' FP32
accumulators.  That replays the reference's serial FP32 order, so the
outputs and issue accounting are bit-for-bit those of the reference
(pinned by the parity tests), and only one level's fragments are ever
in flight.

Scatter discipline: SpMM outputs accumulate with ``+=`` into a
zero-initialised buffer, exactly like the references — assignment
would lose the ``+0.0 + (-0.0) = +0.0`` rounding of the add and break
uint16-view parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..hardware.tensor_core import TensorCoreStats, mma_m8n8k4_batched
from .core import cached_plan
from .layout import GroupLayout, accumulation_levels, group_layout

__all__ = [
    "SpmmOctetPlan",
    "SpmmWmmaPlan",
    "spmm_octet_plan",
    "spmm_wmma_plan",
    "execute_spmm_octet",
    "execute_spmm_wmma",
]


@dataclass(frozen=True)
class SpmmOctetPlan:
    """Flattened octet-tiling SpMM schedule (4-vector k-groups)."""

    vector_length: int
    num_vector_rows: int
    tile_n: int
    layout: GroupLayout
    #: per-depth (sel, gidx) gathers for serial k-group accumulation
    levels: Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class SpmmWmmaPlan:
    """Flattened warp-tiling SpMM schedule (16-vector k-steps)."""

    vector_length: int
    num_vector_rows: int
    tile_n: int
    layout: GroupLayout
    levels: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def _compile_spmm_octet(kern, a) -> SpmmOctetPlan:
    layout = group_layout(a.vector_row_nnz(), 4)
    return SpmmOctetPlan(
        vector_length=a.vector_length,
        num_vector_rows=a.num_vector_rows,
        tile_n=int(kern.TILE_N),
        layout=layout,
        levels=accumulation_levels(layout),
    )


def spmm_octet_plan(kern, a) -> SpmmOctetPlan:
    """Cached octet SpMM plan for ``kern`` on structure ``a``."""
    return cached_plan("spmm-octet", kern, a, (), lambda: _compile_spmm_octet(kern, a))


def _compile_spmm_wmma(kern, a) -> SpmmWmmaPlan:
    layout = group_layout(a.vector_row_nnz(), 16)
    return SpmmWmmaPlan(
        vector_length=a.vector_length,
        num_vector_rows=a.num_vector_rows,
        tile_n=int(kern.TILE_N),
        layout=layout,
        levels=accumulation_levels(layout),
    )


def spmm_wmma_plan(kern, a) -> SpmmWmmaPlan:
    """Cached wmma SpMM plan for ``kern`` on structure ``a``."""
    return cached_plan("spmm-wmma", kern, a, (), lambda: _compile_spmm_wmma(kern, a))


def execute_spmm_octet(
    plan: SpmmOctetPlan, a, b16: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run an octet SpMM plan; returns the FP32 output and TCU stats.

    One :func:`mma_m8n8k4_batched` call per (N tile, accumulation
    level) covers that level's k-groups; the caller, the kernel
    wrapper, applies the fp16 rounding (plans carry schedule only).
    """
    v = plan.vector_length
    m = plan.num_vector_rows * v
    n = b16.shape[1]
    tc = TensorCoreStats()
    out = np.zeros((m, n), dtype=np.float32)
    lay = plan.layout
    G = lay.num_groups
    if G == 0 or n == 0:
        return out, tc
    # switched-RHS fragments: values gathered once, reused per tile
    a_flat = np.zeros((G * 4, 8), dtype=np.float16)
    a_flat[lay.slots, :v] = a.values
    a_groups = a_flat.reshape(G, 4, 8)
    octets = plan.tile_n // 8
    out3 = out.reshape(plan.num_vector_rows, v, n)
    R = lay.rows_act.size
    for n0 in range(0, n, plan.tile_n):
        n1 = min(n, n0 + plan.tile_n)
        # switched-LHS fragments: every k-group's B rows in one gather
        b_flat = np.zeros((G * 4, plan.tile_n), dtype=np.float16)
        b_flat[lay.slots, : n1 - n0] = b16[a.col_idx, n0:n1]
        b_groups = b_flat.reshape(G, 4, plan.tile_n).transpose(0, 2, 1)
        acc = np.zeros((R, plan.tile_n, 8), dtype=np.float32)
        for sel, gidx in plan.levels:  # serial k-group accumulation
            batch_b = b_groups[gidx].reshape(-1, 8, 4)
            batch_a = np.repeat(a_groups[gidx], octets, axis=0)
            partial = mma_m8n8k4_batched(batch_b, batch_a, stats=tc)
            acc[sel] += partial.reshape(-1, plan.tile_n, 8)
        out3[lay.rows_act, :, n0:n1] += acc[:, : n1 - n0, :v].transpose(0, 2, 1)
    return out, tc


def execute_spmm_wmma(
    plan: SpmmWmmaPlan, a, b16: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run a wmma SpMM plan; returns the FP32 output and TCU stats.

    The wmma.m8n32k16 decomposition is replayed flat: per N-tile half
    and accumulation level, one batched call issues that level's
    (k-step, octet, k-slice) fragments in the order
    :func:`~repro.hardware.tensor_core.wmma_m8n32k16` uses internally,
    and the (k-step, k-slice)-ordered accumulation reproduces its
    serial per-octet adds.
    """
    v = plan.vector_length
    m = plan.num_vector_rows * v
    n = b16.shape[1]
    tc = TensorCoreStats()
    out = np.zeros((m, n), dtype=np.float32)
    lay = plan.layout
    G = lay.num_groups
    if G == 0 or n == 0:
        return out, tc
    # Mat_a fragments: (G, j) -> (8, 4), j indexing the 4-deep k-slices
    v_flat = np.zeros((G * 16, 8), dtype=np.float16)
    v_flat[lay.slots, :v] = a.values
    a_steps = v_flat.reshape(G, 16, 8).transpose(0, 2, 1)              # (G, 8, 16)
    a_frags = a_steps.reshape(G, 8, 4, 4).transpose(0, 2, 1, 3)        # (G, 4, 8, 4)
    a_tiled = np.tile(a_frags, (1, 4, 1, 1))                           # (G, 16, 8, 4)
    out3 = out.reshape(plan.num_vector_rows, v, n)
    R = lay.rows_act.size
    for n0 in range(0, n, plan.tile_n):
        n1 = min(n, n0 + plan.tile_n)
        b_flat = np.zeros((G * 16, plan.tile_n), dtype=np.float16)
        b_flat[lay.slots, : n1 - n0] = b16[a.col_idx, n0:n1]
        b3 = b_flat.reshape(G, 16, plan.tile_n)
        # accumulator indexed [row, half, octet, 8-row, 8-col]
        halves = plan.tile_n // 32
        acc = np.zeros((R, halves, 4, 8, 8), dtype=np.float32)
        for half in range(halves):
            sub = b3[:, :, half * 32 : (half + 1) * 32]
            # Mat_b fragments in the wmma-internal (octet, k-slice) order
            b_frags = sub.reshape(G, 4, 4, 4, 8).transpose(0, 3, 1, 2, 4)
            for sel, gidx in plan.levels:  # serial k-steps, then k-slices
                partial = mma_m8n8k4_batched(
                    a_tiled[gidx].reshape(-1, 8, 4), b_frags[gidx].reshape(-1, 4, 8), stats=tc
                )
                partial = partial.reshape(-1, 4, 4, 8, 8)              # [g, octet, j, ...]
                for j in range(4):
                    acc[sel, half] += partial[:, :, j]
        acc_full = acc.transpose(0, 3, 1, 2, 4).reshape(R, 8, plan.tile_n)
        out3[lay.rows_act, :, n0:n1] += acc_full[:, :v, : n1 - n0]
    return out, tc
