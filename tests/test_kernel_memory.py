"""Peak-memory bound of the SDDMM and SpMM kernels' execution.

The simulated tensor-core SDDMMs stream over K the way the kernels do
(one batched tensor-core call per k-step, accumulated at once), and
the fine-grained SDDMMs gather their fp32 operands in chunks of a
fixed byte budget.  So no call holds a K-long copy of every output's
operands: on the attention-shaped head-256 problem below, whole-problem
temporaries took 129-210 MiB per call, and streaming takes 5-14 MiB.

The simulated tensor-core SpMMs stream over K the same way: per output
tile, one batched call per accumulation level (the ``d``-th k-group of
every row).  Batching every k-group of the tile at once took 22-39 MiB
per call on the same problem; streaming takes 6-8 MiB.
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
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel

SEQ, V, DENSITY, HEAD = 1024, 8, 0.1, 256

#: traced peak of one ``Kernel.run``, operands and stats included
BOUND_MIB = 48
SPMM_BOUND_MIB = 16

KERNELS = {
    "sddmm-octet-reg": lambda: OctetSddmmKernel(variant="reg", simulate=True),
    "sddmm-octet-shfl": lambda: OctetSddmmKernel(variant="shfl", simulate=True),
    "sddmm-octet-arch": lambda: OctetSddmmKernel(variant="arch", simulate=True),
    "sddmm-wmma": lambda: WmmaSddmmKernel(simulate=True),
    "sddmm-fpu": lambda: FpuSddmmKernel(),
    "cusparse-sddmm": lambda: CusparseSddmmKernel(),
}

SPMM_KERNELS = {
    "spmm-octet": lambda: OctetSpmmKernel(simulate=True),
    "spmm-wmma": lambda: WmmaSpmmKernel(simulate=True),
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
    out, peak = _traced_peak(lambda: kern.run(q, kt, operand).output)
    assert out.nnz == operand.nnz
    assert peak <= BOUND_MIB * 2**20, f"{name}: {peak / 2**20:.1f} MiB"


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def spmm_problem():
    rng = np.random.default_rng(36)
    keep = rng.random((SEQ // V, SEQ)) < DENSITY
    dense = rng.uniform(-1, 1, (SEQ // V, V, SEQ)) * keep[:, None, :]
    a = ColumnVectorSparseMatrix.from_dense(dense.reshape(SEQ, SEQ).astype(np.float16), V)
    return a, rng.uniform(-1, 1, (SEQ, HEAD)).astype(np.float16)


@pytest.mark.parametrize("name", sorted(SPMM_KERNELS))
def test_spmm_peak_memory_is_bounded(name, spmm_problem):
    a, b = spmm_problem
    out, peak = _traced_peak(lambda: SPMM_KERNELS[name]().run(a, b).output)
    assert out.shape == (SEQ, HEAD)
    assert peak <= SPMM_BOUND_MIB * 2**20, f"{name}: {peak / 2**20:.1f} MiB"
