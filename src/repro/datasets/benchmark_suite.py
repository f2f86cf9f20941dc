"""Benchmark construction per §7.1.1 (Figure 16).

Given a DLMC topology at sparsity S:

* **CVSE benchmark** — reuse ``csrRowPtr``/``csrColInd`` and draw a
  random V-vector per indexed position (the logical row count becomes
  ``rows x V``);
* **Blocked-ELL benchmark** — block size = V, blocks per block row
  matched to the same sparsity, uniform-random block columns;
* dense operands ``B`` (SpMM) or ``A``/``B`` (SDDMM) drawn uniform.

The SpMM problem is ``A[MxK] @ B[KxN]`` with A the sparse benchmark and
N in {64, 128, 256}; the SDDMM problem is ``A[MxK] @ B[KxN] ∘ C`` with
C the sparse benchmark and K in {64, 128, 256}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.conversions import blocked_ell_matching, cvse_from_csr_topology
from ..formats.cvse import ColumnVectorSparseMatrix
from ..perfmodel import memo
from .dlmc import DlmcEntry

__all__ = ["SpmmProblem", "SddmmProblem", "build_spmm_problem", "build_sddmm_problem"]

#: The paper's dense-dimension grid.
N_SIZES: Tuple[int, ...] = (64, 128, 256)
K_SIZES: Tuple[int, ...] = (64, 128, 256)


@dataclass
class SpmmProblem:
    """One Figure-17 data point: sparse A, matched Blocked-ELL, dense B.

    Built with ``operands=False``, ``a_cvse`` is a mask (no values) and
    ``a_ell`` and ``b`` are None.
    """

    entry: DlmcEntry
    vector_length: int
    n: int
    a_cvse: ColumnVectorSparseMatrix
    a_ell: Optional[BlockedEllMatrix]
    b: Optional[np.ndarray]

    @property
    def m(self) -> int:
        return self.a_cvse.shape[0]

    @property
    def k(self) -> int:
        return self.a_cvse.shape[1]

    def dense_a(self) -> np.ndarray:
        return self.a_cvse.to_dense(np.float16)


@dataclass
class SddmmProblem:
    """One Figure-19 data point: dense A/B, sparse output mask C."""

    entry: DlmcEntry
    vector_length: int
    k: int
    mask: ColumnVectorSparseMatrix
    a: Optional[np.ndarray]
    b: Optional[np.ndarray]

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


@memo.memoised_rng("problem")
def build_spmm_problem(
    entry: DlmcEntry,
    vector_length: int,
    n: int,
    rng: Optional[np.random.Generator] = None,
    operands: bool = True,
) -> SpmmProblem:
    """§7.1.1 SpMM benchmark: CVSE + matched Blocked-ELL + dense B.

    ``operands=False`` draws nothing, for analytic sweeps: ``a_cvse`` is
    the mask on ``entry.csr``'s own index arrays (``values`` is None),
    and ``a_ell`` and ``b`` are None.  The SpMM models price a mask as
    the fp16-valued matrix of its topology, and the Blocked-ELL model
    reads nothing but the matched shape
    (``BlockedEllMatrix.matched_shape``).
    """
    if not operands:
        return SpmmProblem(entry, vector_length, n, _topology_cvse(entry, vector_length),
                           None, None)
    rng = rng or np.random.default_rng(7)
    a = cvse_from_csr_topology(entry.csr, vector_length, rng)
    ell = blocked_ell_matching(a, rng)
    b = rng.uniform(-1.0, 1.0, size=(a.shape[1], n)).astype(np.float16)
    return SpmmProblem(entry, vector_length, n, a, ell, b)


@memo.memoised_rng("problem")
def build_sddmm_problem(
    entry: DlmcEntry,
    vector_length: int,
    k: int,
    rng: Optional[np.random.Generator] = None,
    operands: bool = True,
) -> SddmmProblem:
    """§7.1.1 SDDMM benchmark: CVSE output mask + dense A/B.

    The mask is built on ``entry.csr``'s own index arrays.
    ``operands=False`` draws nothing (``a`` and ``b`` are None) for
    analytic sweeps that only consume the output mask.
    """
    mask = _topology_cvse(entry, vector_length)
    m, n = mask.shape
    a = b = None
    if operands:
        rng = rng or np.random.default_rng(7)
        # the §7.1.1 construction draws a V-vector per mask position
        # before A and B; the mask drops them, the generator keeps them
        rng.uniform(-1.0, 1.0, size=(mask.nnz_vectors, vector_length))
        a = rng.uniform(-1.0, 1.0, size=(m, k)).astype(np.float16)
        b = rng.uniform(-1.0, 1.0, size=(k, n)).astype(np.float16)
    return SddmmProblem(entry, vector_length, k, mask, a, b)
