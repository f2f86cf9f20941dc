"""Cross-format conversions and topology utilities.

The benchmark harness needs to build *matched* instances of every
format from one topology (paper §7.1.1): a DLMC CSR topology becomes a
CVSE matrix directly, and a Blocked-ELL matrix with the same sparsity
and problem size.  These helpers centralise that construction plus the
generic dense round-trips used by the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .blocked_ell import BlockedEllMatrix
from .csr import CSRMatrix
from .cvse import ColumnVectorSparseMatrix

__all__ = [
    "cvse_from_csr_topology",
    "blocked_ell_matching",
    "pad_rows",
]


def pad_rows(dense: np.ndarray, multiple: int) -> np.ndarray:
    """Zero-pad the row count up to a multiple (CVSE needs M % V == 0)."""
    m = dense.shape[0]
    rem = m % multiple
    if rem == 0:
        return dense
    pad = multiple - rem
    return np.vstack([dense, np.zeros((pad, dense.shape[1]), dtype=dense.dtype)])


def cvse_from_csr_topology(
    csr: CSRMatrix,
    vector_length: int,
    rng: Optional[np.random.Generator] = None,
) -> ColumnVectorSparseMatrix:
    """§7.1.1: reuse csrRowPtr/csrColInd, draw a random V-vector per index.

    The resulting matrix has ``csr.rows * V`` logical rows: each scalar
    row of the topology becomes one *vector row*.
    """
    return ColumnVectorSparseMatrix.from_topology(
        row_ptr=csr.row_ptr,
        col_idx=csr.col_idx,
        vector_length=vector_length,
        num_cols=csr.shape[1],
        rng=rng,
    )


def blocked_ell_matching(
    cvse: ColumnVectorSparseMatrix,
    rng: Optional[np.random.Generator] = None,
) -> BlockedEllMatrix:
    """Blocked-ELL benchmark matched to a CVSE instance (§7.1.1).

    Block size = V; blocks per block-row chosen so the two formats have
    the same sparsity and problem size; block columns uniform at random.
    """
    v = cvse.vector_length
    m, k, _ = BlockedEllMatrix.matched_shape(cvse.shape, v, cvse.sparsity)
    return BlockedEllMatrix.random(
        (m, k), block_size=v, sparsity=cvse.sparsity, rng=rng or np.random.default_rng(1)
    )
