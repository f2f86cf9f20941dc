"""Column-vector sparse encoding (CVSE) — the paper's first contribution.

Section 4.2: "Our encoding is equivalent with replacing each nonzero
scalar in the CSR sparse matrix with a nonzero column vector, i.e.
``half2`` for V=2, ``half4`` for V=4, and ``float4`` for V=8.  The
elements within each nonzero column vector are stored in consecutive
addresses, and the consecutive vectors in the same row are also
consecutive in the memory space."

A matrix of shape ``(M, K)`` with vector length ``V`` is therefore a
CSR over ``M / V`` *vector rows*: ``row_ptr``/``col_idx`` index nonzero
``V x 1`` column vectors, and ``values[i]`` holds the ``V`` scalars of
vector ``i``.

The same object doubles as the binary *output mask* for SDDMM (§6.4):
``mask_only=True`` keeps the topology without materialised values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .csr import CSRMatrix, index_array

__all__ = ["ColumnVectorSparseMatrix", "RowVectorSparseMatrix"]

#: Vector lengths with native vector-type loads on the paper's device
#: (half2 / half4 / float4).  Other positive lengths are accepted but
#: map onto multiple loads.
NATIVE_VECTOR_LENGTHS = (1, 2, 4, 8)

#: vectors per ``rng.uniform`` draw in :meth:`ColumnVectorSparseMatrix.from_topology`:
#: bounds its float64 temporary to ``V * 8`` bytes per vector of this chunk
_UNIFORM_CHUNK_VECTORS = 1 << 16


@dataclass
class ColumnVectorSparseMatrix:
    """A sparse matrix encoded as nonzero ``V x 1`` column vectors.

    Attributes
    ----------
    shape:
        Logical dense shape ``(M, K)``; ``M`` must be divisible by ``V``.
    vector_length:
        ``V`` — the grain height (1 degenerates to plain CSR).
    row_ptr:
        ``(M/V + 1,)`` offsets into ``col_idx`` per vector row.
    col_idx:
        ``(nnz_vectors,)`` column of each nonzero vector, sorted within
        each vector row.
    values:
        ``(nnz_vectors, V)`` float16 — or ``None`` for a topology-only
        mask (SDDMM output pattern).
    """

    shape: Tuple[int, int]
    vector_length: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        m, k = self.shape
        v = self.vector_length
        if v <= 0:
            raise ValueError(f"vector length must be positive, got {v}")
        if m % v != 0:
            raise ValueError(f"rows {m} not divisible by vector length {v}")
        self.row_ptr = index_array("row_ptr", self.row_ptr)
        self.col_idx = index_array("col_idx", self.col_idx)
        if self.row_ptr.shape != (m // v + 1,):
            raise ValueError(
                f"row_ptr must have M/V+1 = {m // v + 1} entries, got {self.row_ptr.shape}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.size:
            raise ValueError("row_ptr must start at 0 and end at the vector count")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col_idx.size and (self.col_idx.min() < 0 or self.col_idx.max() >= k):
            raise ValueError("column index out of range")
        if self.values is not None:
            self.values = np.ascontiguousarray(self.values)
            if self.values.shape != (self.col_idx.size, v):
                raise ValueError(
                    f"values must be (nnz_vectors, V) = ({self.col_idx.size}, {v}), "
                    f"got {self.values.shape}"
                )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vector_rows(self) -> int:
        return self.shape[0] // self.vector_length

    @property
    def nnz_vectors(self) -> int:
        return int(self.col_idx.size)

    @property
    def nnz(self) -> int:
        """Stored scalars (vector count x V)."""
        return self.nnz_vectors * self.vector_length

    @property
    def density(self) -> float:
        m, k = self.shape
        return self.nnz / (m * k) if m * k else 0.0

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    @property
    def is_mask(self) -> bool:
        return self.values is None

    def vector_row_nnz(self) -> np.ndarray:
        """Nonzero vectors per vector row (kernel workload per CTA row)."""
        return np.diff(self.row_ptr)

    def row_slice(self, vrow: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(col_idx, values) of vector row ``vrow`` as views."""
        lo, hi = self.row_ptr[vrow], self.row_ptr[vrow + 1]
        vals = None if self.values is None else self.values[lo:hi]
        return self.col_idx[lo:hi], vals

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, vector_length: int, dtype=np.float16
    ) -> "ColumnVectorSparseMatrix":
        """Encode every column vector containing at least one nonzero.

        Zero scalars *inside* a nonzero vector are stored explicitly —
        that is the format's storage overhead relative to fine-grained
        CSR, and exactly what the paper's kernels compute on.
        """
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        m, k = dense.shape
        v = vector_length
        if m % v:
            raise ValueError(f"rows {m} not divisible by V={v}")
        # view as (M/V, V, K) and find nonzero (vrow, col) pairs
        blocks = dense.reshape(m // v, v, k)
        nz_mask = np.any(blocks != 0, axis=1)  # (M/V, K)
        vrows, cols = np.nonzero(nz_mask)
        row_counts = nz_mask.sum(axis=1)
        row_ptr = np.zeros(m // v + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_ptr[1:])
        values = blocks[vrows, :, cols].astype(dtype)  # (nnz, V)
        return cls((m, k), v, row_ptr, cols.astype(np.int64), values)

    @classmethod
    def from_topology(
        cls,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        vector_length: int,
        num_cols: int,
        values: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float16,
    ) -> "ColumnVectorSparseMatrix":
        """Benchmark construction of §7.1.1.

        "We use the csrRowPtr and csrColInd of the [DLMC] sparse
        matrices, and randomly generate a nonzero vector with length V
        for each indexed position."  The logical row count becomes
        ``(len(row_ptr) - 1) * V``.
        """
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        v = vector_length
        m = (row_ptr.size - 1) * v
        if values is None:
            rng = rng or np.random.default_rng(0)
            # uniform in [-1, 1) scaled: keeps fp16 accumulation benign.
            # Drawn chunk by chunk into the fp16 array: the stream, the
            # rounding and the generator's post-state are those of one
            # (nnz, V) draw, without its float64 temporary.
            values = np.empty((col_idx.size, v), dtype=dtype)
            for lo in range(0, col_idx.size, _UNIFORM_CHUNK_VECTORS):
                chunk = values[lo:lo + _UNIFORM_CHUNK_VECTORS]
                chunk[...] = rng.uniform(-1.0, 1.0, size=chunk.shape)
            # guarantee "nonzero vector": flush any all-zero rounding victim
            dead = ~np.any(values != 0, axis=1)
            if np.any(dead):
                values[dead, 0] = dtype(0.5)
        return cls((m, num_cols), v, row_ptr, col_idx, np.asarray(values, dtype=dtype))

    @classmethod
    def mask_from_dense(cls, mask: np.ndarray, vector_length: int) -> "ColumnVectorSparseMatrix":
        """Topology-only encoding of a boolean mask (SDDMM output pattern)."""
        enc = cls.from_dense(np.asarray(mask, dtype=bool), vector_length)
        return cls(enc.shape, enc.vector_length, enc.row_ptr, enc.col_idx, None)

    @classmethod
    def mask_from_groups(cls, grp: np.ndarray, vector_length: int) -> "ColumnVectorSparseMatrix":
        """Topology-only encoding of the ``(rows, K)`` vector-group booleans
        ``grp``: the mask of shape ``(rows * V, K)`` whose vector ``(r, c)``
        is stored iff ``grp[r, c]``.

        Equal to ``mask_from_dense(np.repeat(grp, V, axis=0), V)`` without
        the dense ``(rows * V, K)`` mask: the groups are encoded at ``V=1``
        and their CSR rewrapped as vector rows.
        """
        enc = cls.mask_from_dense(grp, 1)
        rows, k = enc.shape
        return cls((rows * vector_length, k), vector_length, enc.row_ptr, enc.col_idx, None)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the logical dense matrix."""
        if self.values is None:
            raise ValueError("mask-only encoding has no values; use mask_dense()")
        dtype = dtype or self.values.dtype
        m, k = self.shape
        v = self.vector_length
        out = np.zeros((m // v, v, k), dtype=dtype)
        vrows = np.repeat(np.arange(m // v), np.diff(self.row_ptr))
        out[vrows, :, self.col_idx] = self.values.astype(dtype)
        return out.reshape(m, k)

    def mask_dense(self) -> np.ndarray:
        """Dense boolean mask of the stored (vector-granular) topology."""
        m, k = self.shape
        v = self.vector_length
        out = np.zeros((m // v, k), dtype=bool)
        vrows = np.repeat(np.arange(m // v), np.diff(self.row_ptr))
        out[vrows, self.col_idx] = True
        return np.repeat(out, v, axis=0)

    def to_csr(self) -> CSRMatrix:
        """Expand to scalar CSR (explicit zeros inside vectors dropped)."""
        return CSRMatrix.from_dense(self.to_dense(), dtype=self.values.dtype)

    def with_values(self, values: np.ndarray) -> "ColumnVectorSparseMatrix":
        """Same topology, new values (used by SDDMM to build its output)."""
        return ColumnVectorSparseMatrix(
            self.shape, self.vector_length, self.row_ptr, self.col_idx, values
        )

    def transpose(self) -> "RowVectorSparseMatrix":
        """§8: the transpose is a *row*-vector encoding in CSC order."""
        return RowVectorSparseMatrix(
            shape=(self.shape[1], self.shape[0]),
            vector_length=self.vector_length,
            col_ptr=self.row_ptr,
            row_idx=self.col_idx,
            values=self.values,
        )

    def memory_bytes(self) -> int:
        """Bytes of the encoded representation (indices + values)."""
        nbytes = self.row_ptr.nbytes + self.col_idx.nbytes
        if self.values is not None:
            nbytes += self.values.nbytes
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "mask" if self.is_mask else str(None if self.values is None else self.values.dtype)
        return (
            f"ColumnVectorSparseMatrix(shape={self.shape}, V={self.vector_length}, "
            f"nnz_vectors={self.nnz_vectors}, sparsity={self.sparsity:.3f}, values={kind})"
        )


@dataclass
class RowVectorSparseMatrix:
    """Transpose view of a CVSE matrix (paper §8, Discussion).

    "C^T is a transposed sparse matrix under column-vector sparse
    encoding, which can be viewed as 'row vector sparse encoding' that
    is composed of short row vectors aligned along the horizontal
    dimension.  The position of these short row vectors are encoded in
    compressed sparse column (CSC)."
    """

    shape: Tuple[int, int]
    vector_length: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        m, k = self.shape
        v = self.vector_length
        if k % v != 0:
            raise ValueError(f"cols {k} not divisible by vector length {v}")
        self.col_ptr = index_array("col_ptr", self.col_ptr)
        self.row_idx = index_array("row_idx", self.row_idx)
        if self.col_ptr.shape != (k // v + 1,):
            raise ValueError("col_ptr has wrong length")

    @property
    def nnz_vectors(self) -> int:
        return int(self.row_idx.size)

    def to_dense(self, dtype=None) -> np.ndarray:
        if self.values is None:
            raise ValueError("mask-only encoding has no values")
        return self.transpose().to_dense(dtype).T

    def transpose(self) -> ColumnVectorSparseMatrix:
        return ColumnVectorSparseMatrix(
            shape=(self.shape[1], self.shape[0]),
            vector_length=self.vector_length,
            row_ptr=self.col_ptr,
            col_idx=self.row_idx,
            values=self.values,
        )
