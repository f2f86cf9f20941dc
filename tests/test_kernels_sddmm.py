"""Tests for the SDDMM kernels: numerics, variants, window analysis, stats."""

import numpy as np
import pytest

from repro.formats import ColumnVectorSparseMatrix, CSRMatrix
from repro.formats.conversions import cvse_from_csr_topology
from repro.kernels import (
    CusparseSddmmKernel,
    FpuSddmmKernel,
    OctetSddmmKernel,
    WmmaSddmmKernel,
    analyze_windows,
    sddmm,
)
from repro.hardware.instructions import InstrClass
from repro.kernels import functional

RNG = np.random.default_rng(13)


def make_problem(m=64, k=48, n=96, v=4, density=0.25, rng=RNG):
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    mask_grp = rng.random((m // v, n)) < density
    mask = ColumnVectorSparseMatrix.mask_from_dense(np.repeat(mask_grp, v, axis=0), v)
    ref = (a.astype(np.float32) @ b.astype(np.float32)) * mask.mask_dense()
    return a, b, mask, ref


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("kernel", ["octet", "fpu", "wmma"])
    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_matches_masked_reference(self, kernel, v):
        a, b, mask, ref = make_problem(v=v)
        out = sddmm(a, b, mask, kernel=kernel).output
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.1)

    def test_output_topology_is_mask(self):
        a, b, mask, _ = make_problem()
        out = sddmm(a, b, mask).output
        assert np.array_equal(out.row_ptr, mask.row_ptr)
        assert np.array_equal(out.col_idx, mask.col_idx)

    def test_fpu_single_precision(self):
        a, b, mask, ref = make_problem(v=1)
        out = FpuSddmmKernel(precision="single").run(a, b, mask).output
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.05)

    def test_unknown_kernel(self):
        a, b, mask, _ = make_problem()
        with pytest.raises(ValueError, match="unknown SDDMM kernel"):
            sddmm(a, b, mask, kernel="nope")

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            OctetSddmmKernel(variant="magic")

    def test_mask_shape_checked(self):
        a, b, mask, _ = make_problem()
        with pytest.raises(ValueError):
            sddmm(a[:32], b, mask)

    def test_cusparse_sddmm_single_only(self):
        with pytest.raises(ValueError):
            CusparseSddmmKernel(precision="half")

    def test_cusparse_sddmm_values(self):
        a, b, mask, ref = make_problem(v=1)
        csr_mask = CSRMatrix.from_dense(mask.mask_dense().astype(np.float32), dtype=np.float32)
        out = CusparseSddmmKernel().run(a, b, csr_mask).output
        assert np.allclose(out.to_dense(np.float64), ref, atol=0.05)

    @pytest.mark.parametrize("k", [16, 37, 256])
    @pytest.mark.parametrize("gather_bytes", [None, 1000])
    def test_gathered_dot_bits_ignore_chunking(self, monkeypatch, k, gather_bytes):
        # chunks bound the gathered copies; each output is its own row
        # dot, so the bits equal one whole-matrix einsum however the
        # rows are chunked (1000 bytes: a few rows, ending mid-chunk)
        rng = np.random.default_rng(k)
        a32 = rng.uniform(-1, 1, (50, k)).astype(np.float32)
        bt32 = rng.uniform(-1, 1, (60, k)).astype(np.float32)
        rows, cols = rng.integers(0, 50, 503), rng.integers(0, 60, 503)
        whole = np.einsum("ck,ck->c", a32[rows], bt32[cols], optimize=True)
        if gather_bytes is not None:
            monkeypatch.setattr(functional, "_GATHER_BYTES", gather_bytes)
        got = functional._sddmm_gathered_dot(a32, bt32, rows, cols)
        assert np.array_equal(got.view(np.uint32), whole.view(np.uint32))


class TestVariantsSimulated:
    @pytest.mark.parametrize("variant", ["reg", "shfl", "arch"])
    def test_variant_simulation_matches(self, variant):
        a, b, mask, ref = make_problem(m=32, k=20, n=64, v=4)
        out = OctetSddmmKernel(variant=variant, simulate=True).run(a, b, mask).output
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.1)

    def test_variants_agree_bitwise_on_fast_path(self):
        a, b, mask, _ = make_problem()
        outs = [
            OctetSddmmKernel(variant=vv).run(a, b, mask).output.values
            for vv in ("reg", "shfl", "arch")
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])


class TestWindowAnalysis:
    def test_counts(self):
        mask_d = np.zeros((8, 64), dtype=bool)
        mask_d[0:4, [0, 5, 40]] = True   # vrow 0: windows 0 (x2) and 1
        mask_d[4:8, 33] = True           # vrow 1: window 1
        mask = ColumnVectorSparseMatrix.mask_from_dense(mask_d, 4)
        win = analyze_windows(mask, 32)
        assert win.num_ctas_total == 2 * 2
        assert win.num_ctas_active == 3
        assert sorted(win.occupied_counts.tolist()) == [1, 1, 2]
        assert win.total_vectors == 4

    def test_substeps_ceiling(self):
        mask_d = np.zeros((4, 64), dtype=bool)
        mask_d[0:4, :9] = True  # 9 vectors in window 0
        mask = ColumnVectorSparseMatrix.mask_from_dense(mask_d, 4)
        win = analyze_windows(mask, 32)
        assert win.substeps(8) == 2  # ceil(9/8)

    def test_empty_mask(self):
        mask = ColumnVectorSparseMatrix.mask_from_dense(np.zeros((4, 64), bool), 4)
        win = analyze_windows(mask, 32)
        assert win.num_ctas_active == 0
        assert win.substeps(8) == 0.0


class TestStats:
    def _reference_mask(self, v, sparsity=0.9, m=2048, n=1024):
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, (m // v, n))
        d[rng.random((m // v, n)) >= (1 - sparsity)] = 0
        csr = CSRMatrix.from_dense(d.astype(np.float16))
        cv = cvse_from_csr_topology(csr, v, rng)
        return ColumnVectorSparseMatrix(cv.shape, v, cv.row_ptr, cv.col_idx, None)

    def test_grid_matches_paper_table3(self):
        # Table 3: MMA #ThreadBlock 16384 (V=4) / 8192 (V=8)
        for v, blocks in ((4, 16384), (8, 8192)):
            mask = self._reference_mask(v)
            st = OctetSddmmKernel().stats_for(mask, 256)
            assert st.launch.num_ctas == blocks

    def test_fpu_v8_tilen32_spills(self):
        """§6.1: the untuned V=8, TileN=32 configuration spills."""
        kern = FpuSddmmKernel()
        # bypass the tuned TileN to expose the spilling case
        kern._tile_n = lambda v: 32
        mask = self._reference_mask(8, m=256, n=256)
        st = kern.stats_for(mask, 64)
        assert st.global_mem.local_bytes > 0

    def test_fpu_tuned_avoids_spill(self):
        mask = self._reference_mask(8, m=256, n=256)
        st = FpuSddmmKernel().stats_for(mask, 64)
        assert st.global_mem.local_bytes == 0

    def test_arch_uses_fewer_registers_than_reg(self):
        mask = self._reference_mask(8, m=256, n=256)
        regs = {
            vv: OctetSddmmKernel(variant=vv).stats_for(mask, 64).resources.registers_per_thread
            for vv in ("reg", "shfl", "arch")
        }
        assert regs["arch"] < regs["shfl"] < regs["reg"]

    def test_shfl_adds_shuffles(self):
        mask = self._reference_mask(4, m=256, n=256)
        reg = OctetSddmmKernel(variant="reg").stats_for(mask, 64)
        shfl = OctetSddmmKernel(variant="shfl").stats_for(mask, 64)
        assert shfl.instructions[InstrClass.SHFL] > reg.instructions[InstrClass.SHFL]

    def test_reduction_share_shrinks_with_k(self):
        """§7.3.2: SHFL+FADD share falls from K=64 to K=256."""
        mask = self._reference_mask(8)
        kern = OctetSddmmKernel()
        shares = {}
        for k in (64, 256):
            st = kern.stats_for(mask, k)
            sf = st.instructions[InstrClass.SHFL] + st.instructions[InstrClass.FADD]
            shares[k] = sf / st.instructions.total
        assert shares[64] > shares[256]

    def test_octet_uses_no_shared_memory(self):
        mask = self._reference_mask(4, m=256, n=256)
        st = OctetSddmmKernel().stats_for(mask, 64)
        assert st.resources.shared_bytes_per_cta == 0
        assert st.instructions[InstrClass.LDS] == 0

    def test_wmma_uses_shared_memory(self):
        mask = self._reference_mask(4, m=256, n=256)
        st = WmmaSddmmKernel().stats_for(mask, 64)
        assert st.instructions[InstrClass.LDS] > 0
        assert st.instructions[InstrClass.BAR] > 0
