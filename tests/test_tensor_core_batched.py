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
from repro.kernels.functional import sddmm_functional, spmm_functional
from repro.kernels.sddmm_octet import SDDMM_VARIANTS, OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel

from .oracles import sddmm_octet_loop, spmm_octet_loop

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
