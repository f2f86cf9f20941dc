"""Interpreted twins of the six simulated kernels' compiled-plan paths.

Each kernel's ``_execute_simulated`` runs a cached execution plan
(:mod:`repro.plans`).  The functions here are the walks those plans
replaced, written against the kernel's public state only (``TILE_N``,
``variant``): ``oracle(kern, *operands) -> (out, TensorCoreStats)``.
They set nothing on ``kern``.

* :data:`ORACLES` maps each planned kernel class to its batched walk:
  one :func:`mma_m8n8k4_batched` (or one ``wmma.m8n32k16``) stream per
  vector row, bit-for-bit the plan path and its issue counts;
* :func:`spmm_octet_loop` and :func:`sddmm_octet_loop` are the older
  per-octet loops (one :func:`mma_m8n8k4` per octet), which the batched
  octet walks must match bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.hardware.tensor_core import (
    TensorCoreStats,
    mma_m8n8k4,
    mma_m8n8k4_batched,
    wmma_m8n32k16,
)
from repro.hardware.thread_hierarchy import ceil_div
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel

__all__ = ["ORACLES", "spmm_octet", "spmm_octet_loop", "spmm_wmma",
           "sddmm_octet", "sddmm_octet_loop", "sddmm_wmma"]


def _switch_kwargs(kern: OctetSddmmKernel) -> dict:
    """The ``arch`` variant issues HMMA...SWITCH on High-Group-Switched
    operands; ``reg`` and ``shfl`` repair the inversion by data movement
    before a canonical mma, so their math is the plain mma's."""
    if kern.variant == "arch":
        return dict(invert_groups=True, switch_steps=(0, 1, 2, 3))
    return {}


def spmm_octet(
    kern: OctetSpmmKernel, a: ColumnVectorSparseMatrix, b: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Per-row walk with every CTA's octet fragments batched into one
    :func:`mma_m8n8k4_batched` call per (vector row, N tile)."""
    tile_n = kern.TILE_N
    v = a.vector_length
    m, _ = a.shape
    b16 = np.asarray(b, dtype=np.float16)
    n = b16.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    tc = TensorCoreStats()
    for vrow in range(a.num_vector_rows):
        cols, vals = a.row_slice(vrow)
        if cols.size == 0:
            continue
        q = ceil_div(cols.size, 4)  # k-groups of 4 nonzero vectors
        # switched-RHS fragments, one (4 x 8) per k-group
        vals_pad = np.zeros((q * 4, v), dtype=np.float16)
        vals_pad[: cols.size] = vals
        frag_a = np.zeros((q, 4, 8), dtype=np.float16)
        frag_a[:, :, :v] = vals_pad.reshape(q, 4, v)
        for n0 in range(0, n, tile_n):
            n1 = min(n, n0 + tile_n)
            # switched-LHS fragments: gather the k-groups' B rows
            # (padding k-slots and tile columns land on zeros)
            rhs = np.zeros((q * 4, tile_n), dtype=np.float16)
            rhs[: cols.size, : n1 - n0] = b16[cols, n0:n1]
            frag_b = rhs.reshape(q, 4, tile_n).transpose(0, 2, 1)  # (q, 64, 4)
            # whole-CTA fragment batch: (k-group, octet)-major order,
            # each octet owning 8 of the 64 switched-LHS rows
            batch_b = frag_b.reshape(q * 8, 8, 4)
            batch_a = np.repeat(frag_a, 8, axis=0)
            partial = mma_m8n8k4_batched(batch_b, batch_a, stats=tc)
            partial = partial.reshape(q, tile_n, 8)
            acc = np.zeros((tile_n, 8), dtype=np.float32)  # switched: rows = N
            for g in range(q):  # serial k-group accumulation, loop order
                acc += partial[g]
            out[vrow * v : (vrow + 1) * v, n0:n1] += acc[: n1 - n0, :v].T
    return out.astype(np.float16), tc


def spmm_octet_loop(
    kern: OctetSpmmKernel, a: ColumnVectorSparseMatrix, b: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Per-octet walk: one Python-level :func:`mma_m8n8k4` per octet."""
    tile_n = kern.TILE_N
    v = a.vector_length
    m, _ = a.shape
    b16 = np.asarray(b, dtype=np.float16)
    n = b16.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    tc = TensorCoreStats()
    for vrow in range(a.num_vector_rows):
        cols, vals = a.row_slice(vrow)
        if cols.size == 0:
            continue
        for n0 in range(0, n, tile_n):
            n1 = min(n, n0 + tile_n)
            acc = np.zeros((tile_n, 8), dtype=np.float32)  # switched: rows = N
            # process 4 nonzero vectors per mma.m8n8k4
            for s0 in range(0, cols.size, 4):
                s1 = min(cols.size, s0 + 4)
                # switched-LHS: the (64 x 4) B fragment (rows = output cols)
                frag_b = np.zeros((tile_n, 4), dtype=np.float16)
                frag_b[: n1 - n0, : s1 - s0] = b16[cols[s0:s1], n0:n1].T
                # switched-RHS: the (4 x V) vector values
                frag_a = np.zeros((4, 8), dtype=np.float16)
                frag_a[: s1 - s0, :v] = vals[s0:s1]
                # each octet owns 8 of the 64 switched-LHS rows
                for r0 in range(0, tile_n, 8):
                    acc[r0 : r0 + 8] = mma_m8n8k4(
                        frag_b[r0 : r0 + 8], frag_a, acc[r0 : r0 + 8], stats=tc
                    )
            out[vrow * v : (vrow + 1) * v, n0:n1] += acc[: n1 - n0, :v].T
    return out.astype(np.float16), tc


def spmm_wmma(
    kern: WmmaSpmmKernel, a: ColumnVectorSparseMatrix, b: np.ndarray
) -> Tuple[np.ndarray, TensorCoreStats]:
    """Per-row walk issuing the classic wmma.m8n32k16 stream.

    Each vector row pads its compacted nonzeros to 16-vector k-steps
    (the ``TileK`` multiple-of-16 constraint) and runs two
    ``wmma.m8n32k16`` per k-step across the 64-wide n-tile; the V<8 row
    slots are padded with zeros, wasted computation the hardware would
    also perform (and the stats count).
    """
    tile_n = kern.TILE_N
    b16 = np.asarray(b, dtype=np.float16)
    m, _ = a.shape
    n = b16.shape[1]
    v = a.vector_length
    tc = TensorCoreStats()
    out = np.zeros((m, n), dtype=np.float32)
    for vrow in range(a.num_vector_rows):
        cols, vals = a.row_slice(vrow)
        if cols.size == 0:
            continue
        k_steps = ceil_div(cols.size, 16)
        vals_pad = np.zeros((k_steps * 16, v), dtype=np.float16)
        vals_pad[: cols.size] = vals
        for n0 in range(0, n, tile_n):
            n1 = min(n0 + tile_n, n)
            rhs = np.zeros((k_steps * 16, tile_n), dtype=np.float16)
            rhs[: cols.size, : n1 - n0] = b16[cols, n0:n1]
            acc_lo = np.zeros((8, 32), dtype=np.float32)
            acc_hi = np.zeros((8, 32), dtype=np.float32)
            for g in range(k_steps):
                frag_a = np.zeros((8, 16), dtype=np.float16)
                frag_a[:v] = vals_pad[g * 16 : (g + 1) * 16].T
                frag_b = rhs[g * 16 : (g + 1) * 16]
                acc_lo = wmma_m8n32k16(frag_a, frag_b[:, :32], acc_lo, stats=tc)
                acc_hi = wmma_m8n32k16(frag_a, frag_b[:, 32:], acc_hi, stats=tc)
            acc = np.concatenate([acc_lo, acc_hi], axis=1)
            out[vrow * v : (vrow + 1) * v, n0:n1] += acc[:v, : n1 - n0]
    return out.astype(np.float16), tc


def _padded_k(a: np.ndarray, b: np.ndarray, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """fp16 ``a`` and ``b`` with the inner dimension zero-padded to a
    multiple of ``step``."""
    a16 = np.asarray(a, dtype=np.float16)
    b16 = np.asarray(b, dtype=np.float16)
    m, k = a16.shape
    k_pad = ceil_div(k, step) * step
    a_pad = np.zeros((m, k_pad), dtype=np.float16)
    a_pad[:, :k] = a16
    b_pad = np.zeros((k_pad, b16.shape[1]), dtype=np.float16)
    b_pad[:k] = b16
    return a_pad, b_pad


def sddmm_octet(
    kern: OctetSddmmKernel, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
) -> Tuple[ColumnVectorSparseMatrix, TensorCoreStats]:
    """Per-row walk issuing each vector row's whole (sub-step, k-slice)
    octet stream as one :func:`mma_m8n8k4_batched` call."""
    a_pad, b_pad = _padded_k(a, b, 4)
    k4 = a_pad.shape[1] // 4
    v = mask.vector_length
    tc = TensorCoreStats()
    out_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    for vrow in range(mask.num_vector_rows):
        cols, _ = mask.row_slice(vrow)
        if cols.size == 0:
            continue
        lo = mask.row_ptr[vrow]
        rows = slice(vrow * v, (vrow + 1) * v)
        substeps = ceil_div(cols.size, 8)
        # switched-RHS fragments: one (4 x 8) per k-slice, shared by
        # every sub-step of the row
        frag_a = np.zeros((k4, 4, 8), dtype=np.float16)
        frag_a[:, :, :v] = a_pad[rows].T.reshape(k4, 4, v)
        # switched-LHS fragments: the compacted B columns, padded to
        # a whole number of 8-column sub-steps
        bsel = np.zeros((substeps * 8, k4 * 4), dtype=np.float16)
        bsel[: cols.size] = b_pad[:, cols].T
        # (sub-step, k-slice)-major fragment batch
        batch_b = bsel.reshape(substeps, 8, k4, 4).transpose(0, 2, 1, 3).reshape(-1, 8, 4)
        batch_a = np.tile(frag_a, (substeps, 1, 1))
        partial = mma_m8n8k4_batched(batch_b, batch_a, stats=tc, **_switch_kwargs(kern))
        partial = partial.reshape(substeps, k4, 8, 8)
        accs = np.zeros((substeps, 8, 8), dtype=np.float32)
        for j in range(k4):  # serial k accumulation, loop order
            accs += partial[:, j]
        out_vals[lo : lo + cols.size] = accs.reshape(substeps * 8, 8)[: cols.size, :v]
    return mask.with_values(out_vals.astype(np.float16)), tc


def sddmm_octet_loop(
    kern: OctetSddmmKernel, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
) -> Tuple[ColumnVectorSparseMatrix, TensorCoreStats]:
    """Per-octet walk: one Python-level :func:`mma_m8n8k4` per sub-step
    and k-slice."""
    a_pad, b_pad = _padded_k(a, b, 4)
    k_pad = a_pad.shape[1]
    v = mask.vector_length
    switch = _switch_kwargs(kern)
    tc = TensorCoreStats()
    out_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    for vrow in range(mask.num_vector_rows):
        cols, _ = mask.row_slice(vrow)
        if cols.size == 0:
            continue
        lo = mask.row_ptr[vrow]
        rows = slice(vrow * v, (vrow + 1) * v)
        # sub-steps of 8 compacted output columns
        for s0 in range(0, cols.size, 8):
            sel = cols[s0 : s0 + 8]
            acc = np.zeros((8, 8), dtype=np.float32)  # switched: rows = out cols
            for k0 in range(0, k_pad, 4):
                # switched-LHS: (8 x 4) slice of B columns
                frag_b = np.zeros((8, 4), dtype=np.float16)
                frag_b[: sel.size] = b_pad[k0 : k0 + 4, sel].T
                # switched-RHS: (4 x V) slice of A rows
                frag_a = np.zeros((4, 8), dtype=np.float16)
                frag_a[:, :v] = a_pad[rows, k0 : k0 + 4].T
                acc = mma_m8n8k4(frag_b, frag_a, acc, stats=tc, **switch)
            out_vals[lo + s0 : lo + s0 + sel.size] = acc[: sel.size, :v]
    return mask.with_values(out_vals.astype(np.float16)), tc


def sddmm_wmma(
    kern: WmmaSddmmKernel, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
) -> Tuple[ColumnVectorSparseMatrix, TensorCoreStats]:
    """Per-row walk issuing the classic wmma.m8n32k16 stream.

    Each window's nonzero vectors compact into padded 32-wide wmma
    tiles; every tile covers the full K with ``wmma.m8n32k16`` k-steps
    (A rows in the 8-slot, V<8 rows padded: wasted computation the
    hardware would also perform, and the stats count).
    """
    a_pad, b_pad = _padded_k(a, b, 16)
    k_pad = a_pad.shape[1]
    v = mask.vector_length
    tc = TensorCoreStats()
    out_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    for vrow in range(mask.num_vector_rows):
        cols, _ = mask.row_slice(vrow)
        if cols.size == 0:
            continue
        lo = mask.row_ptr[vrow]
        rows = slice(vrow * v, (vrow + 1) * v)
        # padded 32-wide tiles of compacted output columns
        for s0 in range(0, cols.size, 32):
            sel = cols[s0 : s0 + 32]
            acc = np.zeros((8, 32), dtype=np.float32)
            for k0 in range(0, k_pad, 16):
                frag_a = np.zeros((8, 16), dtype=np.float16)
                frag_a[:v] = a_pad[rows, k0 : k0 + 16]
                frag_b = np.zeros((16, 32), dtype=np.float16)
                frag_b[:, : sel.size] = b_pad[k0 : k0 + 16, sel]
                acc = wmma_m8n32k16(frag_a, frag_b, acc, stats=tc)
            out_vals[lo + s0 : lo + s0 + sel.size] = acc[:v, : sel.size].T
    return mask.with_values(out_vals.astype(np.float16)), tc


#: planned kernel class -> its batched interpreted walk
ORACLES: Dict[type, Callable] = {
    OctetSpmmKernel: spmm_octet,
    WmmaSpmmKernel: spmm_wmma,
    OctetSddmmKernel: sddmm_octet,
    WmmaSddmmKernel: sddmm_wmma,
}
