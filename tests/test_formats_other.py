"""Tests for CSR, Blocked-ELL formats and conversions."""

import numpy as np
import pytest

from repro.formats import (
    BlockedEllMatrix,
    CSRMatrix,
    blocked_ell_matching,
    cvse_from_csr_topology,
    pad_rows,
)

RNG = np.random.default_rng(3)


def sparse_dense(m, k, density, rng=RNG, dtype=np.float16):
    d = rng.uniform(-1, 1, (m, k))
    d[rng.random((m, k)) >= density] = 0
    return d.astype(dtype)


class TestCSR:
    def test_round_trip(self):
        d = sparse_dense(20, 30, 0.2)
        m = CSRMatrix.from_dense(d)
        assert np.array_equal(m.to_dense(), d)

    def test_scipy_round_trip(self):
        d = sparse_dense(10, 12, 0.3).astype(np.float32)
        m = CSRMatrix.from_dense(d, dtype=np.float32)
        assert np.allclose(m.to_scipy().toarray(), d)
        m2 = CSRMatrix.from_scipy(m.to_scipy(), dtype=np.float32)
        assert np.allclose(m2.to_dense(), d)

    def test_transpose(self):
        d = sparse_dense(8, 6, 0.4).astype(np.float32)
        m = CSRMatrix.from_dense(d, dtype=np.float32)
        assert np.allclose(m.transpose().to_dense(), d.T)

    def test_row_properties(self):
        d = np.zeros((3, 4), dtype=np.float16)
        d[0, [1, 3]] = 1
        d[2, 0] = 1
        m = CSRMatrix.from_dense(d)
        assert m.row_nnz().tolist() == [2, 0, 1]
        cols, vals = m.row_slice(0)
        assert cols.tolist() == [1, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_fractional_row_ptr_rejected(self):
        with pytest.raises(ValueError, match="row_ptr must hold integers"):
            CSRMatrix((2, 3), np.array([0, 1.5, 2]), np.array([0, 1]), np.ones(2))

    def test_fractional_col_idx_rejected(self):
        with pytest.raises(ValueError, match="col_idx must hold integers"):
            CSRMatrix((1, 3), np.array([0, 1]), np.array([2.7]), np.ones(1))

    def test_2d_values_rejected(self):
        with pytest.raises(ValueError, match="values must be 1-D"):
            CSRMatrix((1, 3), np.array([0, 2]), np.array([0, 1]), np.ones((2, 1)))

    def test_empty_index_arrays_of_any_dtype_accepted(self):
        m = CSRMatrix((2, 2), np.array([0, 0, 0]), np.array([]), np.array([]))
        assert m.nnz == 0 and m.col_idx.dtype == np.int64

    def test_density(self):
        d = np.eye(4, dtype=np.float16)
        m = CSRMatrix.from_dense(d)
        assert m.density == 0.25
        assert m.sparsity == 0.75


class TestBlockedEll:
    def test_random_matches_sparsity(self):
        m = BlockedEllMatrix.random((64, 128), 4, 0.75, RNG)
        assert m.sparsity == pytest.approx(0.75, abs=0.05)

    def test_round_trip(self):
        m = BlockedEllMatrix.random((32, 64), 8, 0.5, RNG)
        d = m.to_dense()
        m2 = BlockedEllMatrix.from_dense(d, 8)
        assert np.array_equal(m2.to_dense(), d)

    def test_padding_blocks(self):
        d = np.zeros((8, 8), dtype=np.float16)
        d[0:4, 0:4] = 1  # row block 0: one block; row block 1: none
        m = BlockedEllMatrix.from_dense(d, 4)
        assert m.ell_width == 1
        assert m.nnz_blocks == 1
        assert (m.col_blocks[1] == -1).all()

    def test_same_ell_width_per_row(self):
        m = BlockedEllMatrix.random((64, 64), 4, 0.8, RNG)
        assert m.col_blocks.shape[1] == m.ell_width

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockedEllMatrix.random((30, 64), 4, 0.5)

    def test_memory_bytes(self):
        m = BlockedEllMatrix.random((32, 32), 4, 0.5, RNG)
        assert m.memory_bytes() == m.col_blocks.nbytes + m.values.nbytes

    def test_fractional_col_blocks_rejected(self):
        # [[0.7], [1.2]] used to be truncated to block columns [[0], [1]]
        with pytest.raises(ValueError, match="col_blocks must hold integers"):
            BlockedEllMatrix((2, 2), 1, np.array([[0.7], [1.2]]),
                             np.ones((2, 1, 1, 1), np.float16))


class TestConversions:
    def test_cvse_from_csr_topology(self):
        d = sparse_dense(16, 32, 0.2)
        csr = CSRMatrix.from_dense(d)
        cv = cvse_from_csr_topology(csr, 4, RNG)
        assert cv.shape == (64, 32)
        assert cv.nnz_vectors == csr.nnz
        # the topology is preserved exactly
        assert np.array_equal(cv.row_ptr, csr.row_ptr)
        assert np.array_equal(cv.col_idx, csr.col_idx)

    def test_blocked_ell_matching_sparsity(self):
        d = sparse_dense(16, 64, 0.2)
        csr = CSRMatrix.from_dense(d)
        cv = cvse_from_csr_topology(csr, 4, RNG)
        ell = blocked_ell_matching(cv, RNG)
        assert ell.block_size == 4
        assert ell.sparsity == pytest.approx(cv.sparsity, abs=0.06)
        assert ell.shape[0] == cv.shape[0]

    def test_pad_rows(self):
        d = np.ones((10, 4), dtype=np.float16)
        p = pad_rows(d, 8)
        assert p.shape == (16, 4)
        assert np.all(p[10:] == 0)
        assert pad_rows(p, 8) is p
