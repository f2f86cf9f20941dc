"""Compressed Sparse Row matrices (the fine-grained baseline format).

The paper's fine-grained baselines (Sputnik, cusparseSpMM on CSR)
operate on standard CSR; the column-vector sparse encoding (§4) is
"inspired by the commonly used CSR encoding, except that each index now
corresponds to a nonzero column vector".  This module provides a small,
NumPy-native CSR with the exact accessors the kernels need, plus
scipy interop for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["CSRMatrix"]


def index_array(name: str, a) -> np.ndarray:
    """``a`` as a contiguous int64 array; :class:`ValueError` unless it
    holds integers (an empty array of any dtype passes), so a float index
    is refused instead of truncated."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
    return np.ascontiguousarray(a, dtype=np.int64)


@dataclass
class CSRMatrix:
    """A CSR sparse matrix with explicit dtype control.

    Attributes
    ----------
    shape:
        ``(rows, cols)``.
    row_ptr:
        ``(rows + 1,)`` int64 offsets into ``col_idx``/``values``.
    col_idx:
        ``(nnz,)`` int64 column indices, sorted within each row.
    values:
        ``(nnz,)`` values (typically ``float16`` in this library).
    """

    shape: Tuple[int, int]
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        rows, cols = self.shape
        self.row_ptr = index_array("row_ptr", self.row_ptr)
        self.col_idx = index_array("col_idx", self.col_idx)
        self.values = np.ascontiguousarray(self.values)
        if rows < 0 or cols < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {self.values.shape}")
        if self.row_ptr.shape != (rows + 1,):
            raise ValueError(f"row_ptr must have {rows + 1} entries, got {self.row_ptr.shape}")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.size:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col_idx.size != self.values.size:
            raise ValueError("col_idx and values must have equal length")
        if self.col_idx.size and (self.col_idx.min() < 0 or self.col_idx.max() >= cols):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.col_idx.size)

    @property
    def density(self) -> float:
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    def row_nnz(self) -> np.ndarray:
        """Nonzeros per row — the load-balance statistic of DLMC rows."""
        return np.diff(self.row_ptr)

    def row_slice(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """(col_idx, values) of row ``r`` as views."""
        lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype=np.float16) -> "CSRMatrix":
        """Encode the nonzeros of a dense matrix."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = dense != 0
        rows, cols = dense.shape
        row_nnz = mask.sum(axis=1)
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=row_ptr[1:])
        r_idx, c_idx = np.nonzero(mask)
        return cls(
            shape=(rows, cols),
            row_ptr=row_ptr,
            col_idx=c_idx.astype(np.int64),
            values=dense[r_idx, c_idx].astype(dtype),
        )

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix, dtype=np.float16) -> "CSRMatrix":
        """Convert any scipy sparse matrix."""
        csr = sp.csr_matrix(mat)
        csr.sort_indices()
        return cls(
            shape=csr.shape,
            row_ptr=csr.indptr.astype(np.int64),
            col_idx=csr.indices.astype(np.int64),
            values=csr.data.astype(dtype),
        )

    def to_scipy(self) -> sp.csr_matrix:
        """View as a float64 scipy CSR (for reference math)."""
        return sp.csr_matrix(
            (self.values.astype(np.float64), self.col_idx, self.row_ptr), shape=self.shape
        )

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the logical dense matrix."""
        dtype = dtype or self.values.dtype
        out = np.zeros(self.shape, dtype=dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.row_ptr))
        out[rows, self.col_idx] = self.values.astype(dtype)
        return out

    def astype(self, dtype) -> "CSRMatrix":
        """Copy with values converted to ``dtype``."""
        return CSRMatrix(self.shape, self.row_ptr, self.col_idx, self.values.astype(dtype))

    def transpose(self) -> "CSRMatrix":
        """CSC of self reinterpreted as CSR of the transpose."""
        return CSRMatrix.from_scipy(self.to_scipy().T.tocsr(), dtype=self.values.dtype)

    def memory_bytes(self) -> int:
        """Bytes of the encoded representation (for peak-memory accounting)."""
        return self.row_ptr.nbytes + self.col_idx.nbytes + self.values.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"sparsity={self.sparsity:.3f}, dtype={self.values.dtype})"
        )
