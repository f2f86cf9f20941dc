"""vectorSparse reproduction: tensor-core kernels for structured sparsity.

Reproduction of Chen, Qu, Ding, Liu, Xie, "Efficient Tensor Core-Based
GPU Kernels for Structured Sparsity under Reduced Precision" (SC '21),
on a simulated Volta-class GPU (see DESIGN.md for the substitution
inventory).

Public API highlights:

* :class:`~repro.formats.ColumnVectorSparseMatrix` — the paper's
  column-vector sparse encoding (§4);
* :func:`~repro.kernels.spmm` / :func:`~repro.kernels.sddmm` /
  :func:`~repro.kernels.sparse_softmax` — the operations, defaulting to
  the TCU-based 1-D Octet Tiling kernels (§5-6);
* :mod:`repro.transformer` — the sparse-transformer application (§7.4);
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .formats import (
    BlockedEllMatrix,
    CSRMatrix,
    ColumnVectorSparseMatrix,
    RowVectorSparseMatrix,
    blocked_ell_matching,
    cvse_from_csr_topology,
)
from .hardware import GPUSpec, VOLTA_V100, default_spec
from .kernels import (
    KernelResult,
    dense_gemm,
    sddmm,
    sparse_softmax,
    spmm,
)
from .perfmodel import LatencyEstimate, LatencyModel
from .profiler import KernelProfile, derive_profile

__version__ = "1.0.0"

__all__ = [
    "BlockedEllMatrix",
    "CSRMatrix",
    "ColumnVectorSparseMatrix",
    "RowVectorSparseMatrix",
    "GPUSpec",
    "VOLTA_V100",
    "KernelProfile",
    "KernelResult",
    "LatencyEstimate",
    "LatencyModel",
    "blocked_ell_matching",
    "cvse_from_csr_topology",
    "default_spec",
    "dense_gemm",
    "derive_profile",
    "sddmm",
    "sparse_softmax",
    "spmm",
    "__version__",
]
