"""Interpreted twins of the shared functional SpMM/SDDMM paths.

:func:`repro.kernels.functional.spmm_functional` and
:func:`~repro.kernels.functional.sddmm_functional` run cached plans of
:mod:`repro.plans.functional`.  These twins expand the topology on
every call instead; the plan path must match them bit for bit (the CSR
skeleton's stable permutation reproduces the COO round trip entry for
entry, and the SDDMM gather pairs are the same arrays).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.kernels.base import Precision, as_compute
from repro.kernels.functional import _check_sddmm_args, _check_spmm_args, _sddmm_gathered_dot
from repro.plans.functional import expand_vector_rows

__all__ = ["spmm_functional_reference", "sddmm_functional_reference"]


def spmm_functional_reference(
    a: ColumnVectorSparseMatrix,
    b: np.ndarray,
    precision: Precision = "half",
    out_dtype=np.float16,
) -> np.ndarray:
    """Twin of ``spmm_functional``: expands the topology on every call
    and builds the CSR via the COO round trip."""
    _check_spmm_args(a, np.asarray(b))
    b32 = as_compute(np.asarray(b), precision)
    # scalar CSR over the expanded rows, preserving explicit zeros
    rows, cols = expand_vector_rows(a)
    vals = as_compute(a.values, precision).reshape(-1)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=a.shape, dtype=np.float32)
    out = mat @ b32
    return out.astype(out_dtype)


def sddmm_functional_reference(
    a: np.ndarray,
    b: np.ndarray,
    mask: ColumnVectorSparseMatrix,
    precision: Precision = "half",
    out_dtype=np.float16,
) -> ColumnVectorSparseMatrix:
    """Twin of ``sddmm_functional``: expands the gather pairs on every
    call."""
    a = np.asarray(a)
    b = np.asarray(b)
    _check_sddmm_args(a, b, mask)
    a32 = as_compute(a, precision)
    bt32 = as_compute(b, precision).T.copy()  # (N, K) rows = B columns
    rows, cols = expand_vector_rows(mask)
    out = _sddmm_gathered_dot(a32, bt32, rows, cols)
    values = out.reshape(mask.nnz_vectors, mask.vector_length).astype(out_dtype)
    return mask.with_values(values)
