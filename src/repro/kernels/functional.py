"""Shared functional numerics for the sparse kernels.

All kernel variants of one operation are numerically equivalent (fp16
operands, fp32 accumulation) and differ only in their device mapping,
so the functional layer is shared: SpMM via a scipy CSR product, SDDMM
via a chunked gathered dot-product.  The register-level tensor-core
path (:mod:`repro.hardware.tensor_core`) is exercised by the slow
``simulate``-mode implementations in the octet kernels and by the unit
tests; its outputs agree with these fast paths to fp32-reassociation
tolerance.

Both entry points run a compiled-plan path — the topology expansion
and CSR skeleton come from the cached plans of
:mod:`repro.plans.functional`.  The interpreted expansion that
recomputes them on every call is a test oracle (``tests/oracles``),
which the plan path matches bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import plans as _plans
from ..formats.cvse import ColumnVectorSparseMatrix
from .base import Precision, as_compute

__all__ = [
    "spmm_functional",
    "sddmm_functional",
]


def _check_spmm_args(a: ColumnVectorSparseMatrix, b: np.ndarray) -> None:
    if a.values is None:
        raise ValueError("SpMM needs values; got a mask-only encoding")
    if b.shape[0] != a.shape[1]:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")


def spmm_functional(
    a: ColumnVectorSparseMatrix,
    b: np.ndarray,
    precision: Precision = "half",
    out_dtype=np.float16,
) -> np.ndarray:
    """``C = A @ B`` with fp32 accumulation; A in CVSE.

    Runs the cached CSR-skeleton plan.
    """
    _check_spmm_args(a, np.asarray(b))
    b32 = as_compute(np.asarray(b), precision)
    plan = _plans.functional_spmm_plan(a)
    vals = as_compute(a.values, precision).reshape(-1)
    mat = sp.csr_matrix(
        (vals[plan.perm], plan.indices, plan.indptr), shape=a.shape, dtype=np.float32
    )
    out = mat @ b32
    return out.astype(out_dtype)


def _check_sddmm_args(
    a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
) -> None:
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    if mask.shape != (m, n):
        raise ValueError(f"mask shape {mask.shape} != output shape {(m, n)}")


#: bytes of one gathered fp32 operand chunk (``rows x k``): bounds the
#: two gathered copies whatever the problem size
_GATHER_BYTES = 4 << 20


def _sddmm_gathered_dot(
    a32: np.ndarray,
    bt32: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """``out[i] = a32[rows[i]] . bt32[cols[i]]``, gathered chunk by chunk."""
    chunk = max(1, _GATHER_BYTES // (a32.itemsize * max(1, a32.shape[1])))
    out = np.empty(rows.size, dtype=np.float32)
    for lo in range(0, rows.size, chunk):
        hi = min(rows.size, lo + chunk)
        out[lo:hi] = np.einsum(
            "ck,ck->c", a32[rows[lo:hi]], bt32[cols[lo:hi]], optimize=True
        )
    return out


def sddmm_functional(
    a: np.ndarray,
    b: np.ndarray,
    mask: ColumnVectorSparseMatrix,
    precision: Precision = "half",
    out_dtype=np.float16,
) -> ColumnVectorSparseMatrix:
    """``C = (A @ B) .* D`` with D a CVSE mask; returns CVSE with values.

    ``A`` is (M, K) row-major; ``B`` is (K, N) (the paper stores it
    column-major to stand in for B^T — a layout, not a math, choice).
    Runs the cached expansion plan.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _check_sddmm_args(a, b, mask)
    a32 = as_compute(a, precision)
    bt32 = as_compute(b, precision).T.copy()  # (N, K) rows = B columns
    plan = _plans.functional_sddmm_plan(mask)
    out = _sddmm_gathered_dot(a32, bt32, plan.rows, plan.cols)
    values = out.reshape(mask.nnz_vectors, mask.vector_length).astype(out_dtype)
    return mask.with_values(values)
