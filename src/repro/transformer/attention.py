"""Self-attention layers: dense baseline and the §7.4 sparse pipeline.

Sparse attention per head::

    A = Softmax((Q K^T ∘ C) / sqrt(k))   # SDDMM (octet) -> sparse softmax
    out = A V                             # SpMM  (octet)

with ``C`` a fixed CVSE mask.  Calling a layer computes the numeric
output only.  Its simulated time has one derivation per mode,
``estimate_batched``, in the Figure 20 vocabulary (``QK^T ∘ C``,
``Softmax``, ``AV``, ``Others``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.config import GPUSpec, default_spec
from ..kernels.base import Kernel, Precision, as_compute, elem_bytes
from ..perfmodel.events import KernelStats, scale_batch
from ..kernels.gemm import DenseGemmKernel
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.softmax_sparse import SparseSoftmaxKernel
from ..kernels.spmm_octet import OctetSpmmKernel

__all__ = ["AttentionTiming", "DenseAttention", "SparseAttention"]


@dataclass
class AttentionTiming:
    """Per-stage latency (µs) of one attention layer, Figure 20 style."""

    qk: float
    softmax: float
    av: float

    @property
    def others(self) -> float:
        """Everything outside the three stages, a fixed 15% of the two
        matrix products.  No bytes are counted behind it (ROADMAP item 1)."""
        return 0.15 * (self.qk + self.av)

    @property
    def total(self) -> float:
        return self.qk + self.softmax + self.av + self.others

    def as_dict(self) -> Dict[str, float]:
        return {
            "QK^T∘C": self.qk,
            "Softmax": self.softmax,
            "AV": self.av,
            "Others": self.others,
            "Total": self.total,
        }


def launch_us(kernel: Kernel, stats: KernelStats, copies: int = 1) -> float:
    """Simulated time of one launch running ``copies`` batched
    ``stats``-shaped problems (``copies=1`` prices ``stats`` as is)."""
    return kernel._model.estimate(scale_batch(stats, copies)).time_us


def _dense_softmax(scores: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores)
    denom = ex.sum(axis=-1, keepdims=True)
    return ex / np.where(denom > 0, denom, 1.0)


class DenseAttention:
    """Dense scaled-dot-product attention at half or single precision.

    The optional boolean ``mask`` is applied additively (-inf), which is
    how the paper's dense baseline realises C (all-ones when absent).
    """

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "single") -> None:
        self.spec = spec or default_spec()
        self.precision = precision
        self._gemm = DenseGemmKernel(self.spec, precision)

    def __call__(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        d = q.shape[1]
        q32 = as_compute(q, self.precision)
        k32 = as_compute(k, self.precision)
        v32 = as_compute(v, self.precision)
        scores = (q32 @ k32.T) / np.sqrt(d)
        out = _dense_softmax(scores, mask) @ v32
        return out.astype(np.float16 if self.precision == "half" else np.float32)

    def estimate_batched(self, l: int, d: int, copies: int = 1) -> AttentionTiming:
        """Per-layer timing with heads x batch folded into batched
        launches (how frameworks actually dispatch attention)."""
        qk = launch_us(self._gemm, self._gemm.stats_for_shape(l, d, l), copies)
        av = launch_us(self._gemm, self._gemm.stats_for_shape(l, l, d), copies)
        # a fused softmax kernel streams the l x l matrix twice
        eb = elem_bytes(self.precision)
        softmax = (
            copies * 2.0 * l * l * eb / (self.spec.dram_bandwidth_gbs * 1e3)
            + self.spec.launch_overhead_us
        )
        return AttentionTiming(qk=qk, softmax=softmax, av=av)


class SparseAttention:
    """§7.4 sparse attention: SDDMM -> sparse softmax -> SpMM on CVSE."""

    def __init__(self, mask: ColumnVectorSparseMatrix, spec: GPUSpec | None = None) -> None:
        if not mask.is_mask:
            mask = ColumnVectorSparseMatrix(
                mask.shape, mask.vector_length, mask.row_ptr, mask.col_idx, None
            )
        self.mask = mask
        self.spec = spec or default_spec()
        self._sddmm = OctetSddmmKernel(self.spec)
        self._spmm = OctetSpmmKernel(self.spec)

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        l, d = q.shape
        if self.mask.shape != (l, l):
            raise ValueError(f"mask is {self.mask.shape}, queries give {(l, l)}")
        softmax_kernel = SparseSoftmaxKernel(self.spec, scale=1.0 / np.sqrt(d))
        # B must be (K x N): K^T has shape (d, l)
        scores = self._sddmm.run(q, np.ascontiguousarray(np.asarray(k).T), self.mask)
        att = softmax_kernel.run(scores.output)
        return self._spmm.run(att.output, np.asarray(v)).output

    def estimate_batched(self, l: int, d: int, copies: int = 1) -> AttentionTiming:
        """Per-layer timing with heads x batch batched into one launch
        per stage (SDDMM, softmax, SpMM)."""
        softmax_kernel = SparseSoftmaxKernel(self.spec)
        att_values = self.mask.with_values(
            np.zeros((self.mask.nnz_vectors, self.mask.vector_length), dtype=np.float16)
        )
        qk = launch_us(self._sddmm, self._sddmm.stats_for(self.mask, d), copies)
        sm = launch_us(softmax_kernel, softmax_kernel.stats_for(att_values), copies)
        av = launch_us(self._spmm, self._spmm.stats_for(att_values, d), copies)
        return AttentionTiming(qk=qk, softmax=sm, av=av)
