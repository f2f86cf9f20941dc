"""Parity of the batched HMMA fast paths against their references.

The vectorised ``mma_m8n8k4_batched`` rewrites of the simulated octet
kernels must be *bit-for-bit* identical to the per-octet Python loops
they replaced, kept in ``tests/oracles`` (same fp16 outputs, same issue
accounting); the WMMA register-level walks must agree with the
functional kernels up to fp16 rounding.
"""

import numpy as np
import pytest

from repro.formats.conversions import cvse_from_csr_topology
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.hardware.tensor_core import mma_m8n8k4, mma_m8n8k4_batched
from repro.kernels.functional import sddmm_functional, spmm_functional
from repro.kernels.sddmm_octet import SDDMM_VARIANTS, OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel

from .oracles import ORACLES, sddmm_octet_loop, spmm_octet_loop

VECTOR_LENGTHS = (2, 4, 8)


def _random_cvse(rng, rows, cols, v, density=0.35):
    """Random CVSE benchmark: topology from a random CSR, values drawn
    per nonzero vector (logical row count becomes ``rows * v``)."""
    dense = (rng.random((rows, cols)) < density).astype(np.float16)
    dense[0, 0] = 1.0  # keep at least one nonzero
    return cvse_from_csr_topology(CSRMatrix.from_dense(dense), v, rng)


def _counts(st):
    return (st.hmma_steps, st.mma_instructions, st.switch_steps)


class TestOctetSpmmBatchedParity:
    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_bit_for_bit_and_stats(self, v):
        rng = np.random.default_rng(100 + v)
        kern = OctetSpmmKernel(simulate=True)
        for trial in range(3):
            cv = _random_cvse(rng, 16, 48 + 8 * trial, v)
            b = rng.uniform(-1, 1, size=(cv.shape[1], 70)).astype(np.float16)
            fast = kern._execute_simulated(cv, b)
            st_fast = kern.last_sim_stats
            ref, st_ref = spmm_octet_loop(kern, cv, b)
            assert np.array_equal(fast.view(np.uint16), ref.view(np.uint16))
            assert _counts(st_fast) == _counts(st_ref)


class TestOctetSddmmBatchedParity:
    @pytest.mark.parametrize("variant", SDDMM_VARIANTS)
    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_bit_for_bit_and_stats(self, v, variant):
        rng = np.random.default_rng(200 + v)
        kern = OctetSddmmKernel(variant=variant, simulate=True)
        for trial in range(2):
            mask = _random_cvse(rng, 12, 40 + 8 * trial, v)
            m, n = mask.shape
            k = 24 + 4 * trial  # deliberately not a multiple of 4
            a = rng.uniform(-1, 1, size=(m, k)).astype(np.float16)
            b = rng.uniform(-1, 1, size=(k, n)).astype(np.float16)
            fast = kern._execute_simulated(a, b, mask)
            st_fast = kern.last_sim_stats
            ref, st_ref = sddmm_octet_loop(kern, a, b, mask)
            assert np.array_equal(
                fast.values.view(np.uint16), ref.values.view(np.uint16)
            )
            assert _counts(st_fast) == _counts(st_ref)

    def test_variants_agree(self):
        # the paper's three data movement schemes compute the same values
        rng = np.random.default_rng(7)
        mask = _random_cvse(rng, 12, 40, 4)
        m, n = mask.shape
        a = rng.uniform(-1, 1, size=(m, 32)).astype(np.float16)
        b = rng.uniform(-1, 1, size=(32, n)).astype(np.float16)
        outs = [
            OctetSddmmKernel(variant=var, simulate=True)
            ._execute_simulated(a, b, mask)
            .values
            for var in SDDMM_VARIANTS
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0].view(np.uint16), other.view(np.uint16))


class TestWmmaSimulatedPaths:
    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_spmm_matches_functional(self, v):
        rng = np.random.default_rng(300 + v)
        cv = _random_cvse(rng, 16, 48, v)
        b = rng.uniform(-1, 1, size=(cv.shape[1], 96)).astype(np.float16)
        kern = WmmaSpmmKernel(simulate=True)
        sim = kern._execute_simulated(cv, b)
        ref = spmm_functional(cv, b, "half")
        assert sim.dtype == np.float16
        assert kern.last_sim_stats.hmma_steps > 0
        np.testing.assert_allclose(
            sim.astype(np.float32), ref.astype(np.float32), rtol=1e-2, atol=1e-2
        )

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_sddmm_matches_functional(self, v):
        rng = np.random.default_rng(400 + v)
        mask = _random_cvse(rng, 12, 40, v)
        m, n = mask.shape
        a = rng.uniform(-1, 1, size=(m, 24)).astype(np.float16)
        b = rng.uniform(-1, 1, size=(24, n)).astype(np.float16)
        kern = WmmaSddmmKernel(simulate=True)
        sim = kern._execute_simulated(a, b, mask)
        ref = sddmm_functional(a, b, mask, "half")
        assert kern.last_sim_stats.hmma_steps > 0
        np.testing.assert_allclose(
            sim.values.astype(np.float32),
            ref.values.astype(np.float32),
            rtol=1e-2,
            atol=1e-2,
        )


class TestBatchLastLayout:
    """The plan executors pass batch-last storage (``(8, 4, batch)``
    seen through a transposed view); the batched MMA must give the same
    bits as on contiguous operands and hand back a batch-last result,
    so no executor silently pays for a relayout."""

    SCHEDULES = {
        "full": {},
        "arch": dict(invert_groups=True, switch_steps=(0, 1, 2, 3)),
    }

    @pytest.mark.parametrize("batch", (5, 40))
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_bits_and_strides(self, schedule, batch):
        kwargs = self.SCHEDULES[schedule]
        rng = np.random.default_rng(batch)
        a_store = rng.uniform(-1, 1, (8, 4, batch)).astype(np.float16)
        b_store = rng.uniform(-1, 1, (4, 8, batch)).astype(np.float16)
        a_store[0, :, 0] = -0.0  # a signed-zero row: outputs -0.0 + ... stay exact
        a, b = a_store.transpose(2, 0, 1), b_store.transpose(2, 0, 1)
        got = mma_m8n8k4_batched(a, b, **kwargs)
        dense = mma_m8n8k4_batched(np.ascontiguousarray(a), np.ascontiguousarray(b), **kwargs)
        per_octet = np.stack([mma_m8n8k4(a[i], b[i], **kwargs) for i in range(batch)])
        assert np.array_equal(got.view(np.uint32), dense.view(np.uint32))
        assert np.array_equal(got.view(np.uint32), per_octet.view(np.uint32))
        assert int(np.argmin(got.strides)) == 0, got.strides


def _adversarial_rows(name: str, rows: int, cols: int, rng) -> np.ndarray:
    """Stored vectors per vector row for one adversarial structure."""
    if name == "empty-rows":
        counts = rng.integers(1, cols // 3, rows)
        counts[::2] = 0  # every other row empty, the first included
        counts[-1] = 0
    elif name == "one-dense-row":
        counts = rng.integers(1, 3, rows)
        counts[rows // 2] = cols
    else:  # power-law row lengths, shuffled
        counts = np.maximum(1, cols // np.arange(1, rows + 1) ** 1.5).astype(np.int64)
        rng.shuffle(counts)
    return counts


def _adversarial_topology(name: str, rows: int, cols: int, seed: int):
    rng = np.random.default_rng(seed)
    counts = _adversarial_rows(name, rows, cols, rng)
    row_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    col_idx = np.concatenate(
        [np.sort(rng.choice(cols, c, replace=False)) for c in counts]
    ).astype(np.int64)
    return row_ptr, col_idx, rng


class TestAdversarialPlanParity:
    """Plans against the interpreted oracles on the structures that
    stress the row-ordered accumulation: empty vector rows, one dense
    row among short ones (one row alone at every deep level) and
    power-law row lengths, at N = 70 (a partial last N tile)."""

    STRUCTURES = ("empty-rows", "one-dense-row", "power-law")
    N, ROWS, K_SPMM, K_SDDMM = 70, 12, 96, 36
    SPMM = {"spmm-octet": OctetSpmmKernel, "spmm-wmma": WmmaSpmmKernel}
    SDDMM = {
        "sddmm-octet-reg": lambda **kw: OctetSddmmKernel(variant="reg", **kw),
        "sddmm-octet-shfl": lambda **kw: OctetSddmmKernel(variant="shfl", **kw),
        "sddmm-octet-arch": lambda **kw: OctetSddmmKernel(variant="arch", **kw),
        "sddmm-wmma": WmmaSddmmKernel,
    }

    @staticmethod
    def _assert_parity(kern, ops):
        got = kern._execute_simulated(*ops)
        ref, ref_stats = ORACLES[type(kern)](kern, *ops)
        got_vals = got.values if isinstance(got, ColumnVectorSparseMatrix) else got
        ref_vals = ref.values if isinstance(ref, ColumnVectorSparseMatrix) else ref
        assert np.array_equal(got_vals.view(np.uint16), ref_vals.view(np.uint16))
        assert _counts(kern.last_sim_stats) == _counts(ref_stats)

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("name", sorted(SPMM))
    def test_spmm(self, name, structure, v):
        row_ptr, col_idx, rng = _adversarial_topology(structure, self.ROWS, self.K_SPMM, v)
        a = ColumnVectorSparseMatrix.from_topology(row_ptr, col_idx, v, self.K_SPMM, rng=rng)
        b = rng.uniform(-1, 1, (self.K_SPMM, self.N)).astype(np.float16)
        self._assert_parity(self.SPMM[name](simulate=True), (a, b))

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("name", sorted(SDDMM))
    def test_sddmm(self, name, structure, v):
        row_ptr, col_idx, rng = _adversarial_topology(structure, self.ROWS, self.N, v)
        mask = ColumnVectorSparseMatrix((self.ROWS * v, self.N), v, row_ptr, col_idx, None)
        a = rng.uniform(-1, 1, (self.ROWS * v, self.K_SDDMM)).astype(np.float16)
        b = rng.uniform(-1, 1, (self.K_SDDMM, self.N)).astype(np.float16)
        self._assert_parity(self.SDDMM[name](simulate=True), (a, b, mask))
