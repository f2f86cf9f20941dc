"""Functional model of the Volta Tensor Core Unit (TCU).

This module reproduces, at register-ownership granularity, the
``mma.m8n8k4`` semantics the paper's kernels are built on (Figures 1,
2 and 15):

* a warp drives two TCUs; each TCU is controlled by two *octets*;
* each octet (thread groups ``i`` and ``i+4``) computes an
  ``(8x4)·(4x8)`` FP16 matrix product with FP32 accumulation;
* the product is issued as four ``HMMA.884.F32.F32.STEP{0..3}``
  instructions.  Steps 0 and 1 produce the *left* four output columns,
  steps 2 and 3 the right four; the shared ``Mat_b`` buffer is fed from
  the low thread group in steps 0-1 and from the high group in steps
  2-3 (the multiplexer in Figure 1);
* the paper's proposed architecture extension (Figure 15) adds a
  ``SWITCH`` flag that swaps the ``Mat_a`` sources of the two thread
  groups and XORs the ``Mat_b`` mux control, enabling the SDDMM octet
  tiling without shuffle instructions or extra accumulators.

Data-layout convention used throughout (documented here once, asserted
by the unit tests):

* ``Mat_a`` (8x4, row-major rows of the octet's LHS): the low group
  holds rows 0-3 (one row per thread), the high group rows 4-7;
* ``Mat_b`` (4x8, columns of the RHS): the low group holds columns 0-3
  (one column per thread), the high group columns 4-7;
* accumulators (8x8 FP32): the low group holds rows 0-3, the high
  group rows 4-7, each thread owning one full row of eight values.

Step semantics under this convention::

    STEP0:  acc[0:4, 0:4] += A[0:4] @ B[:, 0:4]   (low  rows, low  cols)
    STEP1:  acc[4:8, 0:4] += A[4:8] @ B[:, 0:4]   (high rows, low  cols)
    STEP2:  acc[0:4, 4:8] += A[0:4] @ B[:, 4:8]   (low  rows, high cols)
    STEP3:  acc[4:8, 4:8] += A[4:8] @ B[:, 4:8]   (high rows, high cols)

so skipping steps 2-3 yields exactly the left four output columns —
the optimisation the octet tilings expose for vector length V <= 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..obs import metrics as _obs_metrics

__all__ = [
    "OctetFragments",
    "hmma_step",
    "mma_m8n8k4",
    "mma_m8n8k4_batched",
    "wmma_m8n32k16",
    "TensorCoreStats",
]

_F16 = np.float16
_F32 = np.float32


@dataclass
class TensorCoreStats:
    """HMMA issue accounting for one simulated TCU stream."""

    hmma_steps: int = 0
    mma_instructions: int = 0
    switch_steps: int = 0

    def merge(self, other: "TensorCoreStats") -> None:
        self.hmma_steps += other.hmma_steps
        self.mma_instructions += other.mma_instructions
        self.switch_steps += other.switch_steps


@dataclass
class OctetFragments:
    """Register state of one octet around a tensor-core operation.

    ``a_low``/``a_high``: (4, 4) FP16 — rows 0-3 / 4-7 of the 8x4 LHS.
    ``b_low``/``b_high``: (4, 4) FP16 — columns 0-3 / 4-7 of the 4x8
    RHS, stored column-per-thread, i.e. ``b_low[t]`` is column ``t``.
    ``acc_low``/``acc_high``: (4, 8) FP32 accumulator rows.
    """

    a_low: np.ndarray
    a_high: np.ndarray
    b_low: np.ndarray
    b_high: np.ndarray
    acc_low: np.ndarray
    acc_high: np.ndarray

    @classmethod
    def zeros(cls) -> "OctetFragments":
        return cls(
            a_low=np.zeros((4, 4), dtype=_F16),
            a_high=np.zeros((4, 4), dtype=_F16),
            b_low=np.zeros((4, 4), dtype=_F16),
            b_high=np.zeros((4, 4), dtype=_F16),
            acc_low=np.zeros((4, 8), dtype=_F32),
            acc_high=np.zeros((4, 8), dtype=_F32),
        )

    @classmethod
    def from_matrices(cls, a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> "OctetFragments":
        """Distribute full (8x4), (4x8), (8x8) matrices into fragments."""
        a = np.asarray(a, dtype=_F16)
        b = np.asarray(b, dtype=_F16)
        if a.shape != (8, 4) or b.shape != (4, 8):
            raise ValueError(f"expected (8,4)x(4,8), got {a.shape} x {b.shape}")
        if c is None:
            c = np.zeros((8, 8), dtype=_F32)
        c = np.asarray(c, dtype=_F32)
        if c.shape != (8, 8):
            raise ValueError(f"accumulator must be (8,8), got {c.shape}")
        return cls(
            a_low=a[0:4].copy(),
            a_high=a[4:8].copy(),
            # b_low[t] = column t  -> transpose the column slices
            b_low=b[:, 0:4].T.copy(),
            b_high=b[:, 4:8].T.copy(),
            acc_low=c[0:4].copy(),
            acc_high=c[4:8].copy(),
        )

    def a_matrix(self) -> np.ndarray:
        return np.vstack([self.a_low, self.a_high])

    def b_matrix(self) -> np.ndarray:
        return np.hstack([self.b_low.T, self.b_high.T])

    def acc_matrix(self) -> np.ndarray:
        return np.vstack([self.acc_low, self.acc_high])


def _dot_f32(a_rows: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
    """``(..., 4, 4)·(..., 4, 4)`` with FP16 inputs, FP32 multiply-accumulate.

    HMMA forms exact FP32 products of FP16 operands and accumulates in
    FP32; fp32 multiply-accumulate over FP16-valued inputs reproduces
    this (11-bit mantissas square exactly into 24 bits).  The k=4
    contraction is spelled out as four elementwise products summed left
    to right — not ``@``/einsum, whose BLAS/SIMD kernels pick different
    accumulation orders for different strides and batch shapes — so the
    per-element rounding is identical no matter how the call is batched,
    which is what makes :func:`mma_m8n8k4_batched` bit-identical to the
    per-octet loop.
    """
    a32 = np.asarray(a_rows, dtype=_F32)
    b32 = np.asarray(b_cols, dtype=_F32)
    out = np.multiply(a32[..., :, 0:1], b32[..., 0:1, :])
    tmp = np.empty_like(out)
    for j in range(1, a32.shape[-1]):
        # same serial left-to-right fp32 chain; out=/+= only removes
        # the temporaries, it cannot reassociate the per-element sums
        np.multiply(a32[..., :, j : j + 1], b32[..., j : j + 1, :], out=tmp)
        out += tmp
    return out


def hmma_step(
    frags: OctetFragments,
    step: int,
    switch: bool = False,
    stats: TensorCoreStats | None = None,
) -> None:
    """Execute one ``HMMA.884.F32.F32.STEP<step>[.SWITCH]`` in place.

    ``switch=True`` models the paper's proposed extension (Figure 15):
    the ``Mat_a`` buffers of the low and high groups swap sources, and
    the ``Mat_b`` mux control is XORed — so a SWITCH step computes the
    *other* group's row block against the *other* group's column block
    while writing into the original group's accumulator.
    """
    if step not in (0, 1, 2, 3):
        raise ValueError(f"HMMA step must be 0..3, got {step}")

    use_high_rows = step in (1, 3)
    use_high_cols = step in (2, 3)
    if switch:
        use_high_rows = not use_high_rows
        use_high_cols = not use_high_cols

    a = frags.a_high if use_high_rows else frags.a_low
    b = frags.b_high if use_high_cols else frags.b_low
    # b fragments are column-per-thread: stack back to (4 rows x 4 cols)
    b_cols = b.T

    partial = _dot_f32(a, b_cols)  # (4 rows, 4 cols)

    # Accumulator ownership never moves: steps 0/2 write the low group's
    # Acc buffer, steps 1/3 the high group's — also under SWITCH (that
    # is precisely what makes the inverted pattern disappear).
    acc = frags.acc_high if step in (1, 3) else frags.acc_low
    col0 = 4 if step in (2, 3) else 0
    acc[:, col0 : col0 + 4] += partial

    if stats is not None:
        stats.hmma_steps += 1
        if switch:
            stats.switch_steps += 1


def mma_m8n8k4(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    steps: Tuple[int, ...] = (0, 1, 2, 3),
    switch_steps: Tuple[int, ...] = (),
    invert_groups: bool = False,
    stats: TensorCoreStats | None = None,
) -> np.ndarray:
    """One octet's ``mma.m8n8k4``: returns ``a @ b + c`` as (8, 8) FP32.

    ``steps`` allows modelling the removal of STEP2/3 when the useful
    output is only 4 columns wide (V <= 4 in the octet tilings); the
    returned right half is then exactly ``c``'s right half.

    ``invert_groups=True`` models operands that arrive with the octet
    SDDMM's *inverted pattern* (§6.3): after the High Group Switch, the
    low thread group holds the rows/columns the high group canonically
    owns and vice versa.  Issuing every step with the proposed SWITCH
    flag (``switch_steps=(0, 1, 2, 3)``) re-pairs the operands inside
    the TCU, so ``invert_groups + full SWITCH`` reproduces the
    canonical product exactly — the identity the paper's "mma (arch)"
    kernel relies on.
    """
    frags = OctetFragments.from_matrices(a, b, c)
    if invert_groups:
        frags.a_low, frags.a_high = frags.a_high, frags.a_low
        frags.b_low, frags.b_high = frags.b_high, frags.b_low
    for s in steps:
        hmma_step(frags, s, switch=s in switch_steps, stats=stats)
    if stats is not None:
        stats.mma_instructions += 1
    return frags.acc_matrix()


def mma_m8n8k4_batched(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    steps: Tuple[int, ...] = (0, 1, 2, 3),
    switch_steps: Tuple[int, ...] = (),
    invert_groups: bool = False,
    stats: TensorCoreStats | None = None,
) -> np.ndarray:
    """A batch of independent octet ``mma.m8n8k4`` operations at once.

    ``a`` is ``(batch, 8, 4)``, ``b`` is ``(batch, 4, 8)`` — or ``(4, 8)``
    to broadcast one RHS across the batch (the SpMM octet tiling feeds
    all eight octets of a k-group the same switched-RHS fragment) —
    and ``c`` is ``(batch, 8, 8)`` FP32 or ``None`` for zeros.

    Any strides are accepted and the result keeps the caller's memory
    layout: operands stored batch-last (``(8, 4, batch)`` storage seen
    through a transposed view, as the compiled-plan executors pass
    them) give a batch-last result, so every elementwise pass runs the
    batch as its unit-stride inner loop instead of an 8-wide one.

    Semantics are element-for-element those of running
    :func:`mma_m8n8k4` on every batch item: the same four-step
    quadrant schedule, the same SWITCH/invert-groups register
    re-pairing, the same FP32 accumulation order (both paths contract
    k=4 through :func:`_dot_f32`'s serial left-to-right multiply-add
    chain, which no batch shape or stride can reorder), so the result
    is bit-identical to the per-octet loop — the batched-parity tests
    pin this.  ``stats`` aggregates across the batch: ``batch`` mma
    instructions, ``batch x len(steps)`` HMMA steps.
    """
    a = np.asarray(a, dtype=_F16)
    b = np.asarray(b, dtype=_F16)
    if a.ndim != 3 or a.shape[1:] != (8, 4):
        raise ValueError(f"batched Mat_a must be (batch, 8, 4), got {a.shape}")
    batch = a.shape[0]
    _obs_metrics.observe("hmma.batch_size", batch)
    if b.shape == (4, 8):
        b = np.broadcast_to(b, (batch, 4, 8))
    if b.shape != (batch, 4, 8):
        raise ValueError(f"batched Mat_b must be ({batch}, 4, 8), got {b.shape}")
    # promote once, keeping the caller's layout (order="K"): fp16 ->
    # fp32 is exact, so converting before the half/step slicing is
    # bit-identical to converting inside each step
    a = a.astype(_F32, order="K")
    b = b.astype(_F32, order="K")
    if c is None:
        # a zero accumulator, so every output is ``0.0 + x`` exactly as
        # in the per-octet path (signed zeros included)
        acc = np.zeros_like(a, shape=(batch, 8, 8))
    else:
        acc = np.array(c, dtype=_F32, order="K")
        if acc.shape != (batch, 8, 8):
            raise ValueError(f"batched accumulator must be ({batch}, 8, 8), got {acc.shape}")

    # Fast path: the four quadrant steps partition the 8x8 output, each
    # element computed by exactly one step through the same serial k=4
    # chain — so the full-step schedule equals one whole-tile product.
    # That also covers invert_groups + all-SWITCH (the arch identity:
    # the double swap restores the canonical pairing element for
    # element).  Partial schedules and mixed SWITCH patterns keep the
    # explicit per-step walk below.  Batches under 32 keep the walk even
    # though the whole tile is faster for them too: the compiled-plan
    # executors issue almost none, while the interpreted oracles in
    # tests/oracles issue 8-16-item batches per row, so there the fast
    # path would mostly speed up the baseline benchmarks/bench_codegen.py
    # holds the plans to (its --smoke floor then fails on octet SpMM).
    full = tuple(steps) == (0, 1, 2, 3)
    sw = set(switch_steps) & {0, 1, 2, 3}
    if (
        batch >= 32
        and full
        and ((not sw and not invert_groups) or (sw == {0, 1, 2, 3} and invert_groups))
    ):
        acc += _dot_f32(a, b)
        if stats is not None:
            stats.mma_instructions += batch
            stats.hmma_steps += batch * 4
            stats.switch_steps += batch * (4 if invert_groups else 0)
        return acc

    a_low, a_high = a[:, 0:4], a[:, 4:8]
    b_low, b_high = b[:, :, 0:4], b[:, :, 4:8]
    if invert_groups:
        a_low, a_high = a_high, a_low
        b_low, b_high = b_high, b_low

    switched = 0
    for s in steps:
        if s not in (0, 1, 2, 3):
            raise ValueError(f"HMMA step must be 0..3, got {s}")
        switch = s in switch_steps
        use_high_rows = s in (1, 3)
        use_high_cols = s in (2, 3)
        if switch:
            switched += 1
            use_high_rows = not use_high_rows
            use_high_cols = not use_high_cols
        rows = a_high if use_high_rows else a_low
        cols = b_high if use_high_cols else b_low
        partial = _dot_f32(rows, cols)  # (batch, 4, 4)
        # accumulator ownership is by step, not by switch (see hmma_step)
        r0 = 4 if s in (1, 3) else 0
        c0 = 4 if s in (2, 3) else 0
        acc[:, r0 : r0 + 4, c0 : c0 + 4] += partial

    if stats is not None:
        stats.mma_instructions += batch
        stats.hmma_steps += batch * len(steps)
        stats.switch_steps += batch * switched
    return acc


def wmma_m8n32k16(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    stats: TensorCoreStats | None = None,
) -> np.ndarray:
    """Warp-level ``wmma.m8n32k16``: (8x16)·(16x32) + (8x32) in FP32.

    Decomposed into ``mma.m8n8k4`` octet operations exactly as the
    Volta compiler does: 4 octets x 4 k-slices = 16 HMMA steps per
    k-slice group (64 HMMA steps per wmma in total, 16 per octet) —
    issued as one 16-item batch, with the per-octet k-slice partials
    accumulated serially in the compiler's order.
    """
    a = np.asarray(a, dtype=_F16)
    b = np.asarray(b, dtype=_F16)
    if a.shape != (8, 16) or b.shape != (16, 32):
        raise ValueError(f"expected (8,16)x(16,32), got {a.shape} x {b.shape}")
    out = np.zeros((8, 32), dtype=_F32) if c is None else np.asarray(c, dtype=_F32).copy()
    # fragment batch in (octet, k-slice) order
    a_frags = np.stack([a[:, k0 : k0 + 4] for k0 in range(0, 16, 4)])           # (4, 8, 4)
    b_frags = np.stack(
        [
            b[k0 : k0 + 4, n0 : n0 + 8]
            for n0 in range(0, 32, 8)
            for k0 in range(0, 16, 4)
        ]
    )                                                                            # (16, 4, 8)
    partial = mma_m8n8k4_batched(np.tile(a_frags, (4, 1, 1)), b_frags, stats=stats)
    for octet in range(4):
        n0 = octet * 8
        for j in range(4):  # serial k-slice accumulation per octet
            out[:, n0 : n0 + 8] += partial[octet * 4 + j]
    return out
