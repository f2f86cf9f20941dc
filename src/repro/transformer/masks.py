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

__all__ = ["band_random_cvse", "band_random_mask", "mask_to_cvse"]

#: group-mask elements per chunk of :func:`band_random_cvse`: bounds its
#: float64 band-distance and ``rng.random`` temporaries to 4 MiB each
_MASK_CHUNK_ELEMS = 1 << 19


def band_random_cvse(
    seq_len: int,
    vector_length: int = 8,
    band: int = 256,
    sparsity: float = 0.9,
    rng: Optional[np.random.Generator] = None,
) -> ColumnVectorSparseMatrix:
    """Topology-only CVSE mask: diagonal band + random V-vector columns.

    The mask is drawn at its ``V x 1`` granularity as the ``(seq/V, seq)``
    group mask, a row chunk at a time, and encoded from the groups, so no
    ``(seq, seq)`` array is built.  The random component's rate is chosen
    so the *overall* density hits ``1 - sparsity`` (the band is counted
    first).  ``rng`` draws one ``random`` double per group entry, in row-
    major order, or none when the band alone meets the density.
    """
    if vector_length <= 0:
        raise ValueError(f"vector length must be positive, got {vector_length}")
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    if seq_len % vector_length:
        raise ValueError(f"seq_len {seq_len} not divisible by V={vector_length}")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must lie in [0, 1], got {sparsity}")
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    rng = rng or np.random.default_rng(0)
    n_vr = seq_len // vector_length
    grp = np.empty((n_vr, seq_len), dtype=bool)
    step = max(1, _MASK_CHUNK_ELEMS // seq_len)

    # dense band: |i - j| < band/2, evaluated at vector-row granularity
    half = band // 2
    cols = np.arange(seq_len)[None, :]
    for lo in range(0, n_vr, step):
        hi = min(lo + step, n_vr)
        centers = (np.arange(lo, hi) * vector_length)[:, None] + vector_length / 2.0
        grp[lo:hi] = np.abs(cols - centers) < half

    target = 1.0 - sparsity
    band_density = grp.mean()
    rest = max(0.0, target - band_density)
    n_free = grp.size - int(np.count_nonzero(grp))
    if n_free and rest > 0:
        p = min(1.0, rest * grp.size / n_free)
        for lo in range(0, n_vr, step):
            rows = grp[lo:lo + step]
            rows |= rng.random(rows.shape) < p
    return ColumnVectorSparseMatrix.mask_from_groups(grp, vector_length)


def band_random_mask(
    seq_len: int,
    vector_length: int = 8,
    band: int = 256,
    sparsity: float = 0.9,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Boolean (seq, seq) mask of :func:`band_random_cvse`.

    The mask is constant within each ``V``-row group (the column-vector
    constraint), so it is exactly representable in CVSE.
    """
    return band_random_cvse(seq_len, vector_length, band, sparsity, rng).mask_dense()


def mask_to_cvse(mask: np.ndarray, vector_length: int = 8) -> ColumnVectorSparseMatrix:
    """Encode a boolean mask as a topology-only CVSE matrix."""
    return ColumnVectorSparseMatrix.mask_from_dense(mask, vector_length)
