"""Kernel implementations: the paper's designs plus every baseline.

SpMM (``C = A_sparse @ B``, A in CVSE):

* :class:`OctetSpmmKernel` — TCU-based 1-D Octet Tiling (§5.3-5.4);
* :class:`FpuSpmmKernel` — FPU 1-D subwarp tiling, Sputnik-extended (§5.1);
* :class:`WmmaSpmmKernel` — TCU 1-D warp tiling, classic mapping (§5.2);
* :class:`BlockedEllSpmmKernel` — cuSPARSE Blocked-ELL analog (§3.2);
* :class:`CusparseCsrSpmmKernel` — cuSPARSE fine-grained CSR analog.

SDDMM (``C = (A @ B) ∘ D``, D a CVSE mask):

* :class:`OctetSddmmKernel` — TCU-based 1-D Octet Tiling with the
  ``reg``/``shfl``/``arch`` inverted-pattern variants (§6.3-6.4);
* :class:`FpuSddmmKernel` — FPU 1-D subwarp tiling (§6.1);
* :class:`WmmaSddmmKernel` — TCU 1-D warp tiling (§6.2);
* :class:`CusparseSddmmKernel` — cuSPARSE fine-grained analog.

Plus :class:`DenseGemmKernel` (cublasHgemm/Sgemm analogs) and
:class:`SparseSoftmaxKernel` (§7.4).  The convenience wrappers
:func:`spmm` / :func:`sddmm` / :func:`sparse_softmax` /
:func:`dense_gemm` pick kernels by name.
"""

from .base import Kernel, KernelResult, Precision
from .cusparse import BlockedEllSpmmKernel, CusparseCsrSpmmKernel, CusparseSddmmKernel
from .dispatch import SDDMM_KERNELS, SPMM_KERNELS, dense_gemm, sddmm, sparse_softmax, spmm
from .functional import sddmm_functional, spmm_functional
from .gemm import DenseGemmKernel
from .sddmm_common import WindowProfile, analyze_windows
from .sddmm_fpu import FpuSddmmKernel
from .sddmm_octet import SDDMM_VARIANTS, OctetSddmmKernel
from .sddmm_wmma import WmmaSddmmKernel
from .softmax_sparse import SparseSoftmaxKernel
from .spmm_fpu import FpuSpmmKernel
from .spmm_octet import OctetSpmmKernel
from .spmm_wmma import WmmaSpmmKernel

__all__ = [
    "Kernel",
    "KernelResult",
    "Precision",
    "BlockedEllSpmmKernel",
    "CusparseCsrSpmmKernel",
    "CusparseSddmmKernel",
    "DenseGemmKernel",
    "FpuSddmmKernel",
    "FpuSpmmKernel",
    "OctetSddmmKernel",
    "OctetSpmmKernel",
    "SDDMM_VARIANTS",
    "SDDMM_KERNELS",
    "SPMM_KERNELS",
    "SparseSoftmaxKernel",
    "WindowProfile",
    "WmmaSddmmKernel",
    "WmmaSpmmKernel",
    "analyze_windows",
    "dense_gemm",
    "sddmm",
    "sddmm_functional",
    "sparse_softmax",
    "spmm",
    "spmm_functional",
]
