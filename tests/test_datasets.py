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
        prob = build_spmm_problem(self._entry(), 4, 64)
        assert prob.a_cvse.shape == (256, 128)      # rows x V
        assert prob.b.shape == (128, 64)
        assert prob.a_ell.block_size == 4
        # matched sparsity between the two formats (§7.1.1)
        assert prob.a_ell.sparsity == pytest.approx(prob.a_cvse.sparsity, abs=0.06)

    def test_spmm_topology_reused(self):
        e = self._entry()
        prob = build_spmm_problem(e, 2, 64)
        assert np.array_equal(prob.a_cvse.col_idx, e.csr.col_idx)

    def test_sddmm_without_operands_draws_nothing(self):
        entry = self._entry()
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        bare = build_sddmm_problem(entry, 4, 64, rng, operands=False)
        assert rng.bit_generator.state == state
        assert bare.a is None and bare.b is None
        full = build_sddmm_problem(entry, 4, 64, np.random.default_rng(3))
        assert bare.mask.shape == full.mask.shape
        assert np.array_equal(bare.mask.row_ptr, full.mask.row_ptr)
        assert np.array_equal(bare.mask.col_idx, full.mask.col_idx)

    def test_sddmm_problem(self):
        prob = build_sddmm_problem(self._entry(), 8, 64)
        assert prob.mask.is_mask
        assert prob.a.shape == (prob.m, 64)
        assert prob.b.shape == (64, prob.n)
        assert prob.mask.shape == (prob.m, prob.n)
