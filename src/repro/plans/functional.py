"""Compiled index plans for the shared functional kernel layer.

The functional SpMM/SDDMM paths spend their Python time expanding the
CVSE structure into scalar (row, col) pairs and, for SpMM, building a
scipy CSR from COO triplets.  Both are pure functions of the topology,
so they compile into a cached plan:

* :class:`FunctionalSpmmPlan` holds a ready CSR skeleton — the stable
  row-sort permutation of the expanded triplets plus the
  ``indices``/``indptr`` arrays — so execution is one value gather and
  one ``csr_matrix @ dense`` product.  The permutation is *stable*,
  which keeps each scalar row's entries in storage order (ascending
  columns): the direct CSR build is then entry-for-entry identical to
  the COO round trip of the reference, and the product bit-identical.
* :class:`FunctionalSddmmPlan` holds the expanded gather rows/cols for
  the chunked dot-product.

:func:`expand_vector_rows` lives here because both the plan compilers
and the interpreted test oracles (``tests/oracles``) need the same
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import cached_plan

__all__ = [
    "expand_vector_rows",
    "FunctionalSpmmPlan",
    "FunctionalSddmmPlan",
    "functional_spmm_plan",
    "functional_sddmm_plan",
]


def expand_vector_rows(cvse) -> Tuple[np.ndarray, np.ndarray]:
    """(scalar_row, col) pairs of every stored scalar, in storage order."""
    v = cvse.vector_length
    vrows = np.repeat(np.arange(cvse.num_vector_rows), cvse.vector_row_nnz())
    rows = (vrows[:, None] * v + np.arange(v)[None, :]).reshape(-1)
    # storage order is (vector, lane): interleave accordingly
    cols = np.repeat(cvse.col_idx[:, None], v, axis=1).reshape(-1)
    return rows, cols


@dataclass(frozen=True)
class FunctionalSpmmPlan:
    """CSR skeleton over the expanded scalar rows of a CVSE structure."""

    perm: np.ndarray      #: stable storage-order -> CSR-order permutation
    indices: np.ndarray   #: CSR column indices (post-permutation)
    indptr: np.ndarray    #: CSR row pointers over the scalar rows


@dataclass(frozen=True)
class FunctionalSddmmPlan:
    """Expanded (scalar_row, col) gather pairs for the chunked SDDMM."""

    rows: np.ndarray
    cols: np.ndarray


def _compile_functional_spmm(a) -> FunctionalSpmmPlan:
    rows, cols = expand_vector_rows(a)
    perm = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=a.shape[0])
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return FunctionalSpmmPlan(perm=perm, indices=cols[perm], indptr=indptr)


def functional_spmm_plan(a) -> FunctionalSpmmPlan:
    """Cached CSR-skeleton plan for ``spmm_functional`` on ``a``."""
    return cached_plan("functional-spmm", None, a, (), lambda: _compile_functional_spmm(a))


def _compile_functional_sddmm(mask) -> FunctionalSddmmPlan:
    rows, cols = expand_vector_rows(mask)
    return FunctionalSddmmPlan(rows=rows, cols=cols)


def functional_sddmm_plan(mask) -> FunctionalSddmmPlan:
    """Cached expansion plan for ``sddmm_functional`` on ``mask``."""
    return cached_plan(
        "functional-sddmm", None, mask, (), lambda: _compile_functional_sddmm(mask)
    )
