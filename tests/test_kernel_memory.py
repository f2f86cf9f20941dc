"""Peak-memory bound of the SDDMM kernels' execution.

The simulated tensor-core SDDMMs stream over K the way the kernels do
(one batched tensor-core call per k-step, accumulated at once), and
the fine-grained SDDMMs gather their fp32 operands in chunks of a
fixed byte budget.  So no call holds a K-long copy of every output's
operands: on the attention-shaped head-256 problem below, whole-problem
temporaries took 129-210 MiB per call, and streaming takes 5-14 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.kernels.cusparse import CusparseSddmmKernel
from repro.kernels.sddmm_fpu import FpuSddmmKernel
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel

SEQ, V, DENSITY, HEAD = 1024, 8, 0.1, 256

#: traced peak of one ``Kernel.run``, operands and stats included
BOUND_MIB = 48

KERNELS = {
    "sddmm-octet-reg": lambda: OctetSddmmKernel(variant="reg", simulate=True),
    "sddmm-octet-shfl": lambda: OctetSddmmKernel(variant="shfl", simulate=True),
    "sddmm-octet-arch": lambda: OctetSddmmKernel(variant="arch", simulate=True),
    "sddmm-wmma": lambda: WmmaSddmmKernel(simulate=True),
    "sddmm-fpu": lambda: FpuSddmmKernel(),
    "cusparse-sddmm": lambda: CusparseSddmmKernel(),
}


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(35)
    keep = rng.random((SEQ // V, SEQ)) < DENSITY
    q = rng.uniform(-1, 1, (SEQ, HEAD)).astype(np.float16)
    kt = rng.uniform(-1, 1, (HEAD, SEQ)).astype(np.float16)
    mask = ColumnVectorSparseMatrix.mask_from_groups(keep, V)
    csr_mask = CSRMatrix.from_dense(np.repeat(keep, V, axis=0).astype(np.float16))
    return q, kt, mask, csr_mask


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_sddmm_peak_memory_is_bounded(name, problem):
    q, kt, mask, csr_mask = problem
    kern = KERNELS[name]()
    operand = csr_mask if name == "cusparse-sddmm" else mask
    tracemalloc.start()
    try:
        out = kern.run(q, kt, operand).output
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nnz == operand.nnz
    assert peak <= BOUND_MIB * 2**20, f"{name}: {peak / 2**20:.1f} MiB"
