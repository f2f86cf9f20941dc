"""Tests for the SpMM kernels: numerics, register-level simulation, stats."""

import dataclasses

import numpy as np
import pytest

from repro.formats import BlockedEllMatrix, ColumnVectorSparseMatrix, CSRMatrix
from repro.formats.conversions import cvse_from_csr_topology
from repro.kernels import BlockedEllSpmmKernel, CusparseCsrSpmmKernel, FpuSpmmKernel, OctetSpmmKernel, spmm
from repro.kernels.spmm_wmma import WmmaSpmmKernel
from repro.hardware.instructions import InstrClass
from repro.perfmodel import memo
from repro.perfmodel.events import KernelStats, estimate_dram_bytes

RNG = np.random.default_rng(11)


def make_problem(m=64, k=48, n=128, v=4, density=0.3, rng=RNG):
    keep = rng.random((m // v, k)) < density
    d = (rng.uniform(-1, 1, (m // v, v, k)) * keep[:, None, :]).reshape(m, k)
    d = d.astype(np.float16)
    a = ColumnVectorSparseMatrix.from_dense(d, v)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    ref = d.astype(np.float32) @ b.astype(np.float32)
    return a, b, ref


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("kernel", ["octet", "fpu", "wmma"])
    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_matches_dense_reference(self, kernel, v):
        a, b, ref = make_problem(v=v)
        out = spmm(a, b, kernel=kernel).output
        assert np.allclose(out.astype(np.float32), ref, atol=0.05)

    def test_fpu_supports_v1(self):
        a, b, ref = make_problem(v=1)
        out = spmm(a, b, kernel="fpu").output
        assert np.allclose(out.astype(np.float32), ref, atol=0.05)

    def test_fpu_single_precision(self):
        a, b, ref = make_problem(v=1)
        out = FpuSpmmKernel(precision="single").run(a, b).output
        assert out.dtype == np.float32
        assert np.allclose(out, ref, atol=0.05)

    def test_empty_rows_handled(self):
        a, b, _ = make_problem(density=0.0)
        out = spmm(a, b).output
        assert np.allclose(out.astype(np.float32), 0)

    def test_unknown_kernel_rejected(self):
        a, b, _ = make_problem()
        with pytest.raises(ValueError, match="unknown SpMM kernel"):
            spmm(a, b, kernel="nope")

    def test_octet_rejects_single_precision(self):
        with pytest.raises(ValueError):
            OctetSpmmKernel(precision="single")

    def test_dim_mismatch(self):
        a, b, _ = make_problem()
        with pytest.raises(ValueError):
            spmm(a, b[:10])


class TestRegisterLevelSimulation:
    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_simulated_equals_fast(self, v):
        a, b, ref = make_problem(m=32, k=24, n=96, v=v)
        sim = OctetSpmmKernel(simulate=True).run(a, b).output
        fast = OctetSpmmKernel().run(a, b).output
        assert np.allclose(sim.astype(np.float32), ref, atol=0.05)
        assert np.allclose(sim.astype(np.float32), fast.astype(np.float32), atol=0.02)

    def test_residue_handling(self):
        # nnz per row not divisible by 4 (partial mma groups)
        a, b, ref = make_problem(m=16, k=13, n=70, v=4, density=0.45)
        sim = OctetSpmmKernel(simulate=True).run(a, b).output
        assert np.allclose(sim.astype(np.float32), ref, atol=0.05)


class TestCusparseKernels:
    def test_blocked_ell_matches_dense(self):
        ell = BlockedEllMatrix.random((32, 64), 4, 0.5, RNG)
        b = RNG.uniform(-1, 1, (64, 64)).astype(np.float16)
        out = BlockedEllSpmmKernel().run(ell, b).output
        ref = ell.to_dense(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, atol=0.05)

    def test_csr_spmm_matches_dense(self):
        d = RNG.uniform(-1, 1, (16, 24)).astype(np.float16)
        d[RNG.random((16, 24)) < 0.7] = 0
        csr = CSRMatrix.from_dense(d)
        b = RNG.uniform(-1, 1, (24, 32)).astype(np.float16)
        out = CusparseCsrSpmmKernel().run(csr, b).output
        assert np.allclose(out, d.astype(np.float32) @ b.astype(np.float32), atol=0.05)


class TestStats:
    def _reference(self, v, sparsity=0.9, m=2048, k=1024):
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, (m // v, k))
        d[rng.random((m // v, k)) >= (1 - sparsity)] = 0
        csr = CSRMatrix.from_dense(d.astype(np.float16))
        return cvse_from_csr_topology(csr, v, rng)

    def test_grid_matches_paper_table2(self):
        # Table 2: #ThreadBlock 2048 (V=4) and 1024 (V=8) at N=256
        for v, blocks in ((4, 2048), (8, 1024)):
            a = self._reference(v)
            st = OctetSpmmKernel().stats_for(a, 256)
            assert st.launch.num_ctas == blocks

    def test_hmma_count_near_paper(self):
        # §7.2.2: 429,504 HMMA at V=4; 215,104 at V=8 (ours within 10%)
        for v, hmma in ((4, 429504), (8, 215104)):
            a = self._reference(v)
            st = OctetSpmmKernel().stats_for(a, 256)
            assert st.instructions[InstrClass.HMMA] == pytest.approx(hmma, rel=0.10)

    def test_octet_sass_fits_l0(self):
        a = self._reference(4)
        st = OctetSpmmKernel().stats_for(a, 256)
        assert st.program.working_set <= 768

    def test_fpu_sass_matches_paper(self):
        # §7.2.2: 3776 lines (V=4), 6968 (V=8)
        for v, lines in ((4, 3776), (8, 6968)):
            a = self._reference(v)
            st = FpuSpmmKernel().stats_for(a, 256)
            assert st.program.sass_lines == pytest.approx(lines, rel=0.01)

    def test_octet_sectors_per_request_wide(self):
        a = self._reference(4)
        st = OctetSpmmKernel().stats_for(a, 256)
        assert st.global_mem.sectors_per_request > 10  # LDG.128-dominated

    def test_fpu_sectors_per_request_narrow(self):
        a = self._reference(4)
        st = FpuSpmmKernel().stats_for(a, 256)
        assert 3 < st.global_mem.sectors_per_request < 6  # LDG.32-dominated

    def test_flops_match_useful_work(self):
        a = self._reference(4)
        st = OctetSpmmKernel().stats_for(a, 256)
        expected = 2.0 * a.nnz * 256
        assert st.flops == pytest.approx(expected, rel=1e-6)

    def test_more_nonzeros_more_cycles(self):
        dense_a = self._reference(4, sparsity=0.5)
        sparse_a = self._reference(4, sparsity=0.95)
        k = OctetSpmmKernel()
        t_dense = k._model.estimate(k.stats_for(dense_a, 256)).time_us
        t_sparse = k._model.estimate(k.stats_for(sparse_a, 256)).time_us
        assert t_dense > t_sparse

    def test_blocked_ell_stats_grid(self):
        ell = BlockedEllMatrix.random((2048, 1024), 4, 0.9, np.random.default_rng(0))
        st = BlockedEllSpmmKernel().stats_for(ell, 256)
        assert st.launch.num_ctas == 1024  # Table 2's Blocked-ELL row


class TestBlockedEllFromShape:
    """The Blocked-ELL model is a function of the matched shape alone."""

    @pytest.mark.parametrize("b", [4, 8, 16])
    @pytest.mark.parametrize("sparsity", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("k", [96, 100])  # 100: not a multiple of any B
    def test_matrix_equals_shape(self, b, sparsity, k):
        m, k_pad, width = BlockedEllMatrix.matched_shape((4 * b, k), b, sparsity)
        assert k_pad % b == 0 and k <= k_pad < k + b
        ell = BlockedEllMatrix.random((m, k_pad), b, sparsity, np.random.default_rng(b))
        assert ell.ell_width == width
        assert ell.memory_bytes() == (m // b) * width * (8 + b * b * 2)
        kern = BlockedEllSpmmKernel()
        for n in (64, 256):
            st = kern.stats_for_shape(m, k_pad, b, width, n)
            assert kern.stats_for(ell, n) == st
            # the DRAM term prices A at exactly its encoded bytes
            unique = ell.memory_bytes() + k_pad * n * 2 + m * n * 2
            assert st.global_mem.bytes_dram_to_l2 == estimate_dram_bytes(
                unique, st.global_mem.bytes_l2_to_l1, kern.spec.l2_bytes)

    def test_fp32_values_rejected(self):
        ell = BlockedEllMatrix.random((32, 64), 4, 0.5, np.random.default_rng(0),
                                      dtype=np.float32)
        with pytest.raises(ValueError, match="fp16"):
            BlockedEllSpmmKernel().stats_for(ell, 64)


class TestMaskOnlyOperand:
    """The SpMM models read A's topology alone: a mask is priced as the
    fp16-valued matrix of the same topology, and only execution needs
    the values."""

    @pytest.mark.parametrize("memo_on", [True, False])
    @pytest.mark.parametrize("kernel,precision", [
        (OctetSpmmKernel, "half"), (WmmaSpmmKernel, "half"),
        (FpuSpmmKernel, "half"), (FpuSpmmKernel, "single"),
    ])
    def test_priced_as_the_fp16_matrix(self, kernel, precision, memo_on):
        a, b, _ = make_problem()
        assert a.values.dtype == np.float16
        mask = ColumnVectorSparseMatrix(a.shape, a.vector_length, a.row_ptr, a.col_idx)
        memo.set_enabled(memo_on)
        try:
            masked = kernel(precision=precision).stats_for(mask, 64)
            valued = kernel(precision=precision).stats_for(a, 64)
            for f in dataclasses.fields(KernelStats):
                assert getattr(masked, f.name) == getattr(valued, f.name), f.name
            with pytest.raises(ValueError, match="mask-only"):
                kernel(precision=precision).run(mask, b)
        finally:
            memo.set_enabled(None)
