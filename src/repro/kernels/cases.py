"""The registered kernels, named once, and their seeded operands.

The paper's evaluation (§7: Tables 1-3, Figs 17-20) compares one fixed
set of kernel designs.  :data:`KERNEL_CASES` names each of them once, in
registry order, with the operand it consumes, the class and fixed
constructor arguments that build it, and — for the six simulated
kernels — the plan compiler of :mod:`repro.plans`.  The profiler and
the tier-1 sanitizer and plan parity tests take their kernels from
this table and their seeded operands from the builders below; what
only one of them reads (the profiler's trace replay, the sanitizer's
check bodies in ``tests/sanitizer``) stays with that consumer.

The builders draw from the caller's generator, so a caller that draws
in the same order gets the same operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .. import plans
from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.csr import CSRMatrix
from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.thread_hierarchy import ceil_div
from .base import Kernel
from .cusparse import BlockedEllSpmmKernel, CusparseCsrSpmmKernel, CusparseSddmmKernel
from .gemm import DenseGemmKernel
from .sddmm_fpu import FpuSddmmKernel
from .sddmm_octet import OctetSddmmKernel
from .sddmm_wmma import WmmaSddmmKernel
from .softmax_sparse import SparseSoftmaxKernel
from .spmm_fpu import FpuSpmmKernel
from .spmm_octet import OctetSpmmKernel
from .spmm_wmma import WmmaSpmmKernel

__all__ = ["KernelCase", "KERNEL_CASES", "cvse_operand", "mask_operand",
           "ell_operand", "csr_operand"]


@dataclass(frozen=True)
class KernelCase:
    """One registered kernel: its operand kind, factory and plan compiler.

    ``operand`` is ``"cvse"`` (column-vector sparse values), ``"mask"``
    (column-vector sparse topology), ``"ell"``, ``"csr"`` or
    ``"dense"`` (the GEMM baseline, which takes shapes only).
    """

    name: str
    operand: str
    factory: type
    kwargs: Mapping[str, object] = field(default_factory=dict)
    plan: Optional[Callable] = None

    def kernel(self, **extra) -> Kernel:
        """A fresh kernel; callers add options such as ``simulate=True``."""
        return self.factory(**self.kwargs, **extra)

    def compile_plan(self, kern: Kernel, structure, k: Optional[int] = None):
        """This kernel's compiled plan on ``structure`` (``k`` is the
        SDDMM inner dimension; SpMM plans take none)."""
        if k is None:
            return self.plan(kern, structure)
        return self.plan(kern, structure, k)


#: registered kernel name -> case, registry order
KERNEL_CASES: Dict[str, KernelCase] = {
    c.name: c
    for c in (
        KernelCase("spmm-octet", "cvse", OctetSpmmKernel, plan=plans.spmm_octet_plan),
        KernelCase("spmm-wmma", "cvse", WmmaSpmmKernel, plan=plans.spmm_wmma_plan),
        KernelCase("spmm-fpu", "cvse", FpuSpmmKernel),
        KernelCase("spmm-blocked-ell", "ell", BlockedEllSpmmKernel),
        KernelCase("dense-gemm", "dense", DenseGemmKernel),
        *(KernelCase(f"sddmm-octet-{variant}", "mask", OctetSddmmKernel,
                     {"variant": variant}, plans.sddmm_octet_plan)
          for variant in ("reg", "shfl", "arch")),
        KernelCase("sddmm-wmma", "mask", WmmaSddmmKernel, plan=plans.sddmm_wmma_plan),
        KernelCase("sddmm-fpu", "mask", FpuSddmmKernel),
        KernelCase("softmax", "cvse", SparseSoftmaxKernel),
        KernelCase("cusparse-csr-spmm", "csr", CusparseCsrSpmmKernel, {"precision": "half"}),
        KernelCase("cusparse-sddmm", "csr", CusparseSddmmKernel),
    )
}


def cvse_operand(keep: np.ndarray, v: int,
                 rng: np.random.Generator) -> ColumnVectorSparseMatrix:
    """fp16 CVSE values on the vector topology ``keep`` (``rows x k``
    booleans): one ``uniform(-1, 1, (rows, v, k))`` draw, masked."""
    rows, k = keep.shape
    d = (rng.uniform(-1, 1, (rows, v, k)) * keep[:, None, :]).reshape(rows * v, k)
    return ColumnVectorSparseMatrix.from_dense(d.astype(np.float16), v)


def mask_operand(grp: np.ndarray, v: int) -> ColumnVectorSparseMatrix:
    """The CVSE mask whose vector groups are the booleans ``grp``."""
    return ColumnVectorSparseMatrix.mask_from_groups(grp, v)


def ell_operand(shape: Tuple[int, int], density: float, rng: np.random.Generator,
                block: int = 16) -> BlockedEllMatrix:
    """A random Blocked-ELL operand, both dims padded up to ``block``."""
    m, k = (ceil_div(d, block) * block for d in shape)
    return BlockedEllMatrix.random((m, k), block, sparsity=1.0 - density, rng=rng)


def csr_operand(shape: Tuple[int, int], density: float,
                rng: np.random.Generator) -> CSRMatrix:
    """fp16 CSR: uniform values, then the ``random() < density`` draw."""
    d = rng.uniform(-1, 1, shape) * (rng.random(shape) < density)
    return CSRMatrix.from_dense(d.astype(np.float16))
