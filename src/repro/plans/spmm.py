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

Layout: the plan orders the active rows by group count, descending,
so the rows level ``d`` touches are always the first ``n_d`` of that
order.  The executor keeps each tile's FP32 accumulators in row order
with the row axis innermost, ``[.., row]``, and adds level ``d`` into
the prefix ``acc[..., :n_d]``; the output scatters back through the
order at the end of the tile.  It also lays the k-groups out level by
level, so one level's fragments are a contiguous run of groups, which
it relays batch-last — ``(8, 4, batch)`` storage passed to
:func:`mma_m8n8k4_batched` as a transposed ``(batch, 8, 4)`` view, the
row innermost in the batch — so every elementwise pass of the MMA runs
the batch at unit stride.  Each row still adds its own k-groups in
serial order, so the bits are those of the row-major walk.

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
    #: active-row positions by group count, descending
    row_order: np.ndarray
    #: per-depth flat group indices; level ``d`` covers ``row_order[:n_d]``
    levels: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SpmmWmmaPlan:
    """Flattened warp-tiling SpMM schedule (16-vector k-steps)."""

    vector_length: int
    num_vector_rows: int
    tile_n: int
    layout: GroupLayout
    row_order: np.ndarray
    levels: Tuple[np.ndarray, ...]


def _compile_spmm(kern, a, group: int, plan_cls):
    layout = group_layout(a.vector_row_nnz(), group)
    row_order, levels = accumulation_levels(layout)
    return plan_cls(
        vector_length=a.vector_length,
        num_vector_rows=a.num_vector_rows,
        tile_n=int(kern.TILE_N),
        layout=layout,
        row_order=row_order,
        levels=levels,
    )


def spmm_octet_plan(kern, a) -> SpmmOctetPlan:
    """Cached octet SpMM plan for ``kern`` on structure ``a``."""
    return cached_plan("spmm-octet", kern, a, (), lambda: _compile_spmm(kern, a, 4, SpmmOctetPlan))


def spmm_wmma_plan(kern, a) -> SpmmWmmaPlan:
    """Cached wmma SpMM plan for ``kern`` on structure ``a``."""
    return cached_plan("spmm-wmma", kern, a, (), lambda: _compile_spmm(kern, a, 16, SpmmWmmaPlan))


def _level_major_slots(plan) -> np.ndarray:
    """Slot of every stored vector with the groups laid out level by level.

    Concatenating the levels orders the groups by depth, then by
    ``row_order``, so level ``d`` is a contiguous run of groups; a
    stored vector's slot moves with its group.
    """
    lay = plan.layout
    group_pos = np.empty(lay.num_groups, dtype=np.int64)
    group_pos[np.concatenate(plan.levels)] = np.arange(lay.num_groups)
    return group_pos[lay.slots // lay.group] * lay.group + lay.slots % lay.group


def execute_spmm_octet(
    plan: SpmmOctetPlan, a, b16: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run an octet SpMM plan; returns the FP32 output and TCU stats.

    One :func:`mma_m8n8k4_batched` call per (N tile, accumulation
    level) covers that level's k-groups, batched (octet, row) with the
    row innermost; the caller, the kernel wrapper, applies the fp16
    rounding (plans carry schedule only).
    """
    v = plan.vector_length
    m = plan.num_vector_rows * v
    n = b16.shape[1]
    tc = TensorCoreStats()
    out = np.zeros((m, n), dtype=np.float32)
    G = plan.layout.num_groups
    if G == 0 or n == 0:
        return out, tc
    slots = _level_major_slots(plan)
    # switched-RHS fragments [group, k, v], level-major: gathered once, reused per tile
    a_lm = np.zeros((G * 4, 8), dtype=np.float16)
    a_lm[slots, :v] = a.values
    a_lm = a_lm.reshape(G, 4, 8)
    octets = plan.tile_n // 8
    out3 = out.reshape(plan.num_vector_rows, v, n)
    rows = plan.layout.rows_act[plan.row_order]
    for n0 in range(0, n, plan.tile_n):
        n1 = min(n, n0 + plan.tile_n)
        # switched-LHS fragments [group, k, octet, n in octet], level-major
        b_lm = np.zeros((G * 4, plan.tile_n), dtype=np.float16)
        b_lm[slots, : n1 - n0] = b16[a.col_idx, n0:n1]
        b_tile = b_lm.reshape(G, 4, octets, 8)
        acc = np.zeros((8, 8, octets, rows.size), dtype=np.float32)  # [n, v, octet, row]
        g0 = 0
        for gidx in plan.levels:  # serial k-group accumulation
            nd = gidx.size
            g1 = g0 + nd
            # batch (octet, row), row innermost
            batch_b = np.ascontiguousarray(b_tile[g0:g1].transpose(3, 1, 2, 0))
            batch_a = a_lm[g0:g1].transpose(1, 2, 0)[:, :, None].repeat(octets, axis=2)
            partial = mma_m8n8k4_batched(
                batch_b.reshape(8, 4, -1).transpose(2, 0, 1),
                batch_a.reshape(4, 8, -1).transpose(2, 0, 1),
                stats=tc,
            )
            acc[..., :nd] += partial.reshape(octets, nd, 8, 8).transpose(2, 3, 0, 1)
            g0 = g1
        tile = acc[:, :v].transpose(3, 1, 2, 0).reshape(rows.size, v, plan.tile_n)
        out3[rows, :, n0:n1] += tile[:, :, : n1 - n0]
    return out, tc


def execute_spmm_wmma(
    plan: SpmmWmmaPlan, a, b16: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Run a wmma SpMM plan; returns the FP32 output and TCU stats.

    The wmma.m8n32k16 decomposition is replayed flat: per N tile,
    accumulation level and 32-column half, one batched call issues
    that level's (k-slice, octet, row) fragments, row innermost, and
    the serial per-level, per-k-slice accumulation reproduces the
    per-octet adds of :func:`~repro.hardware.tensor_core.wmma_m8n32k16`.
    """
    v = plan.vector_length
    m = plan.num_vector_rows * v
    n = b16.shape[1]
    tc = TensorCoreStats()
    out = np.zeros((m, n), dtype=np.float32)
    G = plan.layout.num_groups
    if G == 0 or n == 0:
        return out, tc
    slots = _level_major_slots(plan)
    # Mat_a fragments [group, k-slice, k, v], level-major
    a_lm = np.zeros((G * 16, 8), dtype=np.float16)
    a_lm[slots, :v] = a.values
    a_lm = a_lm.reshape(G, 4, 4, 8)
    halves = plan.tile_n // 32
    out3 = out.reshape(plan.num_vector_rows, v, n)
    rows = plan.layout.rows_act[plan.row_order]
    for n0 in range(0, n, plan.tile_n):
        n1 = min(n, n0 + plan.tile_n)
        # Mat_b fragments [group, k-slice, k, half, octet, n in octet], level-major
        b_lm = np.zeros((G * 16, plan.tile_n), dtype=np.float16)
        b_lm[slots, : n1 - n0] = b16[a.col_idx, n0:n1]
        b_tile = b_lm.reshape(G, 4, 4, halves, 4, 8)
        acc = np.zeros((8, 8, halves, 4, rows.size), dtype=np.float32)  # [v, n, half, octet, row]
        g0 = 0
        for gidx in plan.levels:  # serial k-steps, then k-slices
            nd = gidx.size
            g1 = g0 + nd
            # batch (k-slice, octet, row), row innermost
            batch_a = a_lm[g0:g1].transpose(3, 2, 1, 0)[:, :, :, None].repeat(4, axis=3)
            for half in range(halves):
                batch_b = np.ascontiguousarray(b_tile[g0:g1, :, :, half].transpose(2, 4, 1, 3, 0))
                partial = mma_m8n8k4_batched(
                    batch_a.reshape(8, 4, -1).transpose(2, 0, 1),
                    batch_b.reshape(4, 8, -1).transpose(2, 0, 1),
                    stats=tc,
                )
                partial = partial.reshape(4, 4, nd, 8, 8).transpose(0, 3, 4, 1, 2)
                for j in range(4):  # [k-slice][v, n, octet, row]
                    acc[:, :, half, :, :nd] += partial[j]
            g0 = g1
        tile = acc[:v].transpose(4, 0, 2, 3, 1).reshape(rows.size, v, plan.tile_n)
        out3[rows, :, n0:n1] += tile[:, :, : n1 - n0]
    return out, tc
