"""Tests for the DLMC-like generator and §7.1.1 benchmark construction."""

import numpy as np
import pytest

from repro.datasets import (
    RESNET50_SHAPES,
    SPARSITIES,
    build_sddmm_problem,
    build_spmm_problem,
    dlmc_suite,
    generate_topology,
    magnitude_prune,
)
from repro.formats import ColumnVectorSparseMatrix
from repro.formats.conversions import blocked_ell_matching, cvse_from_csr_topology


class TestMagnitudePrune:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(64, 64))
        keep = magnitude_prune(w, 0.9)
        assert keep.sum() == round(0.1 * w.size)

    def test_keeps_largest(self):
        w = np.arange(1, 101, dtype=float).reshape(10, 10)
        keep = magnitude_prune(w, 0.5)
        assert keep.sum() == 50
        assert keep.ravel()[50:].all()      # the big half survives
        assert not keep.ravel()[:50].any()

    def test_zero_sparsity(self):
        w = np.random.default_rng(1).normal(size=(8, 8))
        assert magnitude_prune(w, 0.0).all()

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            magnitude_prune(np.ones((2, 2)), 1.0)


class TestGenerateTopology:
    def test_sparsity_matches(self):
        csr = generate_topology((128, 256), 0.9)
        assert csr.sparsity == pytest.approx(0.9, abs=0.01)

    def test_rows_imbalanced(self):
        """Global magnitude pruning produces heavy-tailed rows (the
        DLMC signature the kernels must load-balance against)."""
        csr = generate_topology((256, 512), 0.9, np.random.default_rng(5))
        nnz = csr.row_nnz()
        assert nnz.std() > 0.2 * nnz.mean()

    def test_deterministic_given_rng(self):
        a = generate_topology((64, 64), 0.8, np.random.default_rng(9))
        b = generate_topology((64, 64), 0.8, np.random.default_rng(9))
        assert np.array_equal(a.col_idx, b.col_idx)


class TestSuite:
    def test_full_grid(self):
        suite = dlmc_suite(shapes=RESNET50_SHAPES[:2], sparsities=SPARSITIES[:3])
        assert len(suite) == 6
        names = {e.name for e in suite}
        assert len(names) == 6

    def test_entries_match_requested_sparsity(self):
        suite = dlmc_suite(shapes=[(64, 128)], sparsities=[0.8])
        assert suite[0].csr.sparsity == pytest.approx(0.8, abs=0.02)


class TestBenchmarkConstruction:
    def _entry(self):
        return dlmc_suite(shapes=[(64, 128)], sparsities=[0.9])[0]

    def test_spmm_problem(self):
        entry = self._entry()
        prob = build_spmm_problem(entry, 4, 64)
        assert prob.a_cvse.shape == (256, 128)      # rows x V
        assert prob.a_cvse.is_mask                  # topology only: no values drawn
        assert prob.a_cvse.row_ptr is entry.csr.row_ptr
        assert prob.a_cvse.col_idx is entry.csr.col_idx

    def test_sddmm_problem(self):
        entry = self._entry()
        prob = build_sddmm_problem(entry, 8, 64)
        assert prob.mask.is_mask
        assert prob.mask.shape == (prob.m, prob.n) == (512, 128)
        assert prob.mask.row_ptr is entry.csr.row_ptr
        assert prob.mask.col_idx is entry.csr.col_idx

    def test_spmm_topology_reused(self):
        """§7.1.1's CVSE benchmark: the DLMC indices, one V-vector drawn per index."""
        csr = self._entry().csr
        rng = np.random.default_rng(3)
        a = cvse_from_csr_topology(csr, 2, rng)
        assert a.shape == (csr.shape[0] * 2, csr.shape[1])
        assert np.array_equal(a.col_idx, csr.col_idx)
        direct_rng = np.random.default_rng(3)
        direct = ColumnVectorSparseMatrix.from_topology(
            csr.row_ptr, csr.col_idx, 2, csr.shape[1], rng=direct_rng)
        assert np.array_equal(a.values, direct.values)
        assert rng.bit_generator.state == direct_rng.bit_generator.state

    def test_blocked_ell_matches_cvse_sparsity(self):
        a = cvse_from_csr_topology(self._entry().csr, 4, np.random.default_rng(3))
        ell = blocked_ell_matching(a, np.random.default_rng(4))
        assert ell.block_size == 4
        assert ell.sparsity == pytest.approx(a.sparsity, abs=0.06)
