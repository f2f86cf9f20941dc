"""Peak-memory accounting for the sparse transformer (Table 4).

The paper reports peak memory of 4.44 GB / 2.22 GB / 170 MB for
Dense(float) / Dense(half) / Sparse(half) at sequence length 4000,
4 layers x 4 heads x 64 features, batch 8.  The dominant term is the
pair of l x l attention matrices (scores + softmax output) alive per
head per batch element; the sparse pipeline replaces both with CVSE
matrices holding only the ~10% stored entries plus indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..formats.cvse import ColumnVectorSparseMatrix

__all__ = ["MemoryBreakdown", "dense_attention_peak", "sparse_attention_peak"]


@dataclass
class MemoryBreakdown:
    """Peak activation memory in bytes, by component."""

    attention_matrices: int
    qkv_activations: int
    ffn_activations: int

    @property
    def total(self) -> int:
        return self.attention_matrices + self.qkv_activations + self.ffn_activations

    @property
    def total_gb(self) -> float:
        return self.total / 2**30

    @property
    def total_mb(self) -> float:
        return self.total / 2**20


def _common_terms(l: int, d_model: int, d_ff: int, batch: int, eb: int):
    qkv = 4 * batch * l * d_model * eb      # q, k, v, out per live layer
    ffn = batch * l * d_ff * eb
    return qkv, ffn


def dense_attention_peak(
    l: int,
    d_model: int,
    n_heads: int,
    d_ff: int,
    batch: int,
    precision: str = "single",
) -> MemoryBreakdown:
    """Peak activation memory of dense attention (2 copies of l x l)."""
    eb = 2 if precision == "half" else 4
    # scores + probabilities coexist per head x batch at the softmax
    att = 2 * n_heads * batch * l * l * eb
    qkv, ffn = _common_terms(l, d_model, d_ff, batch, eb)
    return MemoryBreakdown(att, qkv, ffn)


def sparse_attention_peak(
    mask: ColumnVectorSparseMatrix,
    d_model: int,
    n_heads: int,
    d_ff: int,
    batch: int,
) -> MemoryBreakdown:
    """Peak activation memory of the CVSE pipeline (in-place softmax)."""
    l = mask.shape[0]
    eb = 2
    per_matrix = mask.memory_bytes() + mask.nnz * eb  # indices + fp16 values
    # the CVSE softmax normalises in place, so only ONE copy of each
    # attention matrix is live (the dense path keeps scores +
    # probabilities — hence its factor 2)
    att = n_heads * batch * per_matrix
    qkv, ffn = _common_terms(l, d_model, d_ff, batch, eb)
    return MemoryBreakdown(att, qkv, ffn)
