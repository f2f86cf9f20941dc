"""Sparse attention masks (§7.4).

"We generate fixed attention masks with a dense band of size 256 along
the diagonal and off-diagonal random attention.  The overall sparsity
is 90% and the attention mask can be expressed by our column-vector
sparse encoding" — i.e. the random part is drawn at ``V x 1`` column-
vector granularity (the paper adds an 8x1 vector constraint to the
Sputnik-style pattern).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix

__all__ = ["band_random_mask", "mask_to_cvse"]


def band_random_mask(
    seq_len: int,
    vector_length: int = 8,
    band: int = 256,
    sparsity: float = 0.9,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Boolean (seq, seq) mask: diagonal band + random V-vector columns.

    The mask is constant within each ``V``-row group (the column-vector
    constraint), so it is exactly representable in CVSE.  The random
    component's rate is chosen so the *overall* density hits
    ``1 - sparsity`` (the band is counted first).
    """
    if seq_len % vector_length:
        raise ValueError(f"seq_len {seq_len} not divisible by V={vector_length}")
    rng = rng or np.random.default_rng(0)
    n_vr = seq_len // vector_length
    grp = np.zeros((n_vr, seq_len), dtype=bool)

    # dense band: |i - j| < band/2, evaluated at vector-row granularity
    half = band // 2
    centers = (np.arange(n_vr) * vector_length)[:, None] + vector_length / 2.0
    cols = np.arange(seq_len)[None, :]
    grp |= np.abs(cols - centers) < half

    target = 1.0 - sparsity
    band_density = grp.mean()
    rest = max(0.0, target - band_density)
    free = ~grp
    n_free = int(free.sum())
    if n_free and rest > 0:
        p = min(1.0, rest * grp.size / n_free)
        grp |= free & (rng.random(grp.shape) < p)
    return np.repeat(grp, vector_length, axis=0)


def mask_to_cvse(mask: np.ndarray, vector_length: int = 8) -> ColumnVectorSparseMatrix:
    """Encode a boolean mask as a topology-only CVSE matrix."""
    return ColumnVectorSparseMatrix.mask_from_dense(mask, vector_length)

