"""Whole-matrix twins of the vector-granular mask builders.

:func:`repro.transformer.masks.band_random_cvse` fills the ``(seq/V,
seq)`` group mask a row chunk at a time and encodes it with
:meth:`~repro.formats.cvse.ColumnVectorSparseMatrix.mask_from_groups`.
These twins build the same mask the direct way: whole-matrix float64
band distances and one ``rng.random`` draw over the group mask, then
the groups repeated ``V`` times into a dense ``(seq, seq)`` bool that
``mask_from_dense`` re-groups.  The fast path must match them in every
index, every mask bit and the generator's post-state.
"""

from __future__ import annotations

import numpy as np

from repro.formats.cvse import ColumnVectorSparseMatrix

__all__ = ["band_random_mask_reference", "mask_from_groups_reference"]


def band_random_mask_reference(
    seq_len: int, vector_length: int, band: int, sparsity: float, rng: np.random.Generator
) -> np.ndarray:
    """Dense ``(seq, seq)`` bool twin of ``band_random_cvse(...).mask_dense()``."""
    n_vr = seq_len // vector_length
    grp = np.zeros((n_vr, seq_len), dtype=bool)
    half = band // 2
    centers = (np.arange(n_vr) * vector_length)[:, None] + vector_length / 2.0
    cols = np.arange(seq_len)[None, :]
    grp |= np.abs(cols - centers) < half

    rest = max(0.0, (1.0 - sparsity) - grp.mean())
    free = ~grp
    n_free = int(free.sum())
    if n_free and rest > 0:
        p = min(1.0, rest * grp.size / n_free)
        grp |= free & (rng.random(grp.shape) < p)
    return np.repeat(grp, vector_length, axis=0)


def mask_from_groups_reference(grp: np.ndarray, vector_length: int) -> ColumnVectorSparseMatrix:
    """Twin of ``ColumnVectorSparseMatrix.mask_from_groups``: the groups
    repeated into the dense mask and encoded from it."""
    return ColumnVectorSparseMatrix.mask_from_dense(
        np.repeat(grp, vector_length, axis=0), vector_length)
