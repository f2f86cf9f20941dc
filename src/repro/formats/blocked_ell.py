"""Blocked-ELL format (cuSPARSE's structured-sparse SpMM input).

cuSPARSE v11.2.1 introduced a Blocked-ELL SpMM (§2.3/§3.2): the matrix
is partitioned into ``B x B`` blocks; every block row stores the *same*
number of (column-indexed) nonzero blocks, padding with zero blocks
where needed.  The paper constructs its Blocked-ELL benchmarks (§7.1.1)
by matching sparsity and problem size with the CVSE benchmarks:
block size = V, blocks per row = ``round(K/B * (1 - S))``, column
indices uniform at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .csr import index_array

__all__ = ["BlockedEllMatrix"]


@dataclass
class BlockedEllMatrix:
    """An ``(M, K)`` matrix stored as Blocked-ELL with ``B x B`` blocks.

    Attributes
    ----------
    shape:
        Logical dense shape; both dims divisible by ``block_size``.
    block_size:
        ``B``.
    col_blocks:
        ``(M/B, ell_width)`` int64: block-column index of each stored
        block, or ``-1`` for padding blocks.
    values:
        ``(M/B, ell_width, B, B)`` float16 block payloads (zeros for
        padding entries).
    """

    shape: Tuple[int, int]
    block_size: int
    col_blocks: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        m, k = self.shape
        b = self.block_size
        if b <= 0 or m % b or k % b:
            raise ValueError(f"shape {self.shape} not divisible by block size {b}")
        self.col_blocks = index_array("col_blocks", self.col_blocks)
        self.values = np.ascontiguousarray(self.values)
        rows_b = m // b
        if self.col_blocks.ndim != 2 or self.col_blocks.shape[0] != rows_b:
            raise ValueError("col_blocks must be (M/B, ell_width)")
        if self.values.shape != (*self.col_blocks.shape, b, b):
            raise ValueError("values must be (M/B, ell_width, B, B)")
        valid = self.col_blocks >= 0
        if np.any(self.col_blocks[valid] >= k // b):
            raise ValueError("block column index out of range")

    # ------------------------------------------------------------------ #
    @property
    def ell_width(self) -> int:
        """Stored blocks per block row (including padding)."""
        return int(self.col_blocks.shape[1])

    @property
    def num_block_rows(self) -> int:
        return self.shape[0] // self.block_size

    @property
    def nnz_blocks(self) -> int:
        return int((self.col_blocks >= 0).sum())

    @property
    def nnz(self) -> int:
        """Stored scalars in non-padding blocks."""
        return self.nnz_blocks * self.block_size * self.block_size

    @property
    def sparsity(self) -> float:
        m, k = self.shape
        return 1.0 - self.nnz / (m * k)

    # ------------------------------------------------------------------ #
    @staticmethod
    def matched_shape(
        shape: Tuple[int, int], block_size: int, sparsity: float
    ) -> Tuple[int, int, int]:
        """``(M, K, ell_width)`` of the §7.1.1 matched construction.

        ``K`` is padded up to a multiple of ``block_size`` (padding
        columns stay zero) and ``ell_width = round(K/B * (1 - S))``
        blocks per block row, clamped to ``[0, K/B]``.
        """
        m, k = shape
        b = block_size
        k = -(-k // b) * b
        kb = k // b
        width = max(0, min(kb, int(round(kb * (1.0 - sparsity)))))
        return m, k, width

    @classmethod
    def random(
        cls,
        shape: Tuple[int, int],
        block_size: int,
        sparsity: float,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float16,
    ) -> "BlockedEllMatrix":
        """§7.1.1 construction: uniform block columns at matched sparsity."""
        rng = rng or np.random.default_rng(0)
        m, k = shape
        b = block_size
        if m % b or k % b:
            raise ValueError(f"shape {shape} not divisible by block size {b}")
        _, _, width = cls.matched_shape(shape, b, sparsity)
        kb = k // b
        rows_b = m // b
        col_blocks = np.empty((rows_b, width), dtype=np.int64)
        for r in range(rows_b):  # sample w/o replacement per block row
            col_blocks[r] = np.sort(rng.choice(kb, size=width, replace=False))
        values = rng.uniform(-1.0, 1.0, size=(rows_b, width, b, b)).astype(dtype)
        return cls(shape, b, col_blocks, values)

    @classmethod
    def from_dense(cls, dense: np.ndarray, block_size: int, dtype=np.float16) -> "BlockedEllMatrix":
        """Encode a dense matrix; ELL width = max nonzero blocks per row."""
        dense = np.asarray(dense)
        m, k = dense.shape
        b = block_size
        if m % b or k % b:
            raise ValueError(f"shape {dense.shape} not divisible by block size {b}")
        rows_b, cols_b = m // b, k // b
        blocks = dense.reshape(rows_b, b, cols_b, b).transpose(0, 2, 1, 3)
        nz = np.any(blocks != 0, axis=(2, 3))  # (rows_b, cols_b)
        width = int(nz.sum(axis=1).max()) if rows_b else 0
        col_blocks = np.full((rows_b, width), -1, dtype=np.int64)
        values = np.zeros((rows_b, width, b, b), dtype=dtype)
        for r in range(rows_b):
            cols = np.nonzero(nz[r])[0]
            col_blocks[r, : cols.size] = cols
            values[r, : cols.size] = blocks[r, cols].astype(dtype)
        return cls(dense.shape, b, col_blocks, values)

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the logical dense matrix (padding blocks stay zero)."""
        dtype = dtype or self.values.dtype
        m, k = self.shape
        b = self.block_size
        out = np.zeros((m // b, k // b, b, b), dtype=dtype)
        rows, slots = np.nonzero(self.col_blocks >= 0)
        cols = self.col_blocks[rows, slots]
        # later duplicates of the same (row, col) overwrite; random()
        # samples without replacement so duplicates never arise there.
        out[rows, cols] = self.values[rows, slots].astype(dtype)
        return out.transpose(0, 2, 1, 3).reshape(m, k)

    def memory_bytes(self) -> int:
        """Bytes of the encoded representation."""
        return self.col_blocks.nbytes + self.values.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockedEllMatrix(shape={self.shape}, B={self.block_size}, "
            f"ell_width={self.ell_width}, sparsity={self.sparsity:.3f})"
        )
