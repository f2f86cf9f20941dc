"""Benchmark construction per §7.1.1 (Figure 16).

Given a DLMC topology at sparsity S:

* **CVSE benchmark** — reuse ``csrRowPtr``/``csrColInd`` and draw a
  random V-vector per indexed position (the logical row count becomes
  ``rows x V``; :func:`~repro.formats.conversions.cvse_from_csr_topology`);
* **Blocked-ELL benchmark** — block size = V, blocks per block row
  matched to the same sparsity, uniform-random block columns
  (:func:`~repro.formats.conversions.blocked_ell_matching`).

The SpMM problem is ``A[MxK] @ B[KxN]`` with A the sparse benchmark and
N in {64, 128, 256}; the SDDMM problem is ``A[MxK] @ B[KxN] ∘ C`` with
C the sparse benchmark and K in {64, 128, 256}.  The analytic sweeps
price the topology alone, so the problems built here draw nothing: the
sparse operand is the mask on the entry's own CSR index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..formats.cvse import ColumnVectorSparseMatrix
from .dlmc import DlmcEntry

__all__ = ["SpmmProblem", "SddmmProblem", "build_spmm_problem", "build_sddmm_problem"]

#: The paper's dense-dimension grid.
N_SIZES: Tuple[int, ...] = (64, 128, 256)
K_SIZES: Tuple[int, ...] = (64, 128, 256)


@dataclass
class SpmmProblem:
    """One Figure-17 data point: the sparse A mask at dense width N."""

    entry: DlmcEntry
    vector_length: int
    n: int
    a_cvse: ColumnVectorSparseMatrix

    @property
    def m(self) -> int:
        return self.a_cvse.shape[0]

    @property
    def k(self) -> int:
        return self.a_cvse.shape[1]


@dataclass
class SddmmProblem:
    """One Figure-19 data point: the sparse output mask C at inner size K."""

    entry: DlmcEntry
    vector_length: int
    k: int
    mask: ColumnVectorSparseMatrix

    @property
    def m(self) -> int:
        return self.mask.shape[0]

    @property
    def n(self) -> int:
        return self.mask.shape[1]


def _topology_cvse(entry: DlmcEntry, vector_length: int) -> ColumnVectorSparseMatrix:
    """The mask-only CVSE matrix on ``entry.csr``'s own index arrays."""
    csr = entry.csr
    return ColumnVectorSparseMatrix(
        (csr.shape[0] * vector_length, csr.shape[1]), vector_length, csr.row_ptr, csr.col_idx
    )


def build_spmm_problem(entry: DlmcEntry, vector_length: int, n: int) -> SpmmProblem:
    """§7.1.1 SpMM benchmark, topology only.

    ``a_cvse`` is the mask on ``entry.csr``'s own index arrays
    (``values`` is None).  The SpMM models price a mask as the
    fp16-valued matrix of its topology, and the Blocked-ELL model reads
    nothing but the matched shape (``BlockedEllMatrix.matched_shape``).
    """
    return SpmmProblem(entry, vector_length, n, _topology_cvse(entry, vector_length))


def build_sddmm_problem(entry: DlmcEntry, vector_length: int, k: int) -> SddmmProblem:
    """§7.1.1 SDDMM benchmark, topology only: the output mask on
    ``entry.csr``'s own index arrays."""
    return SddmmProblem(entry, vector_length, k, _topology_cvse(entry, vector_length))
