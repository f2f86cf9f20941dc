"""Tests for the column-vector sparse encoding (paper §4)."""

import numpy as np
import pytest

from repro.formats import ColumnVectorSparseMatrix, RowVectorSparseMatrix

RNG = np.random.default_rng(7)


def vector_sparse_dense(m, k, v, density, rng=RNG):
    """Dense matrix whose sparsity pattern is V-vector aligned."""
    keep = rng.random((m // v, k)) < density
    vals = rng.uniform(-1, 1, (m // v, v, k))
    # ensure kept vectors have at least one nonzero element
    vals[..., :] += 0.1 * np.sign(vals)
    return (vals * keep[:, None, :]).reshape(m, k).astype(np.float16)


class TestPaperFigure8:
    def test_figure8_encoding(self):
        """Reproduce the exact example of Figure 8: 12 values, V=2,
        csrRowPtr=[0,3,4,6], csrColInd=[0,2,6,3,1,6]."""
        row_ptr = np.array([0, 3, 4, 6])
        col_idx = np.array([0, 2, 6, 3, 1, 6])
        values = np.arange(12, dtype=np.float16).reshape(6, 2)
        m = ColumnVectorSparseMatrix((6, 8), 2, row_ptr, col_idx, values)
        assert m.nnz_vectors == 6
        assert m.nnz == 12
        d = m.to_dense()
        # first vector: rows 0-1, column 0 hold values 0, 1
        assert d[0, 0] == 0 and d[1, 0] == 1
        # vector 2: rows 0-1 column 6 hold 4, 5
        assert d[0, 6] == 4 and d[1, 6] == 5
        # vector 3: rows 2-3 column 3 hold 6, 7
        assert d[2, 3] == 6 and d[3, 3] == 7


class TestRoundTrips:
    @pytest.mark.parametrize("v", [1, 2, 4, 8])
    def test_dense_round_trip(self, v):
        d = vector_sparse_dense(32, 24, v, 0.3)
        m = ColumnVectorSparseMatrix.from_dense(d, v)
        assert np.array_equal(m.to_dense(), d)

    def test_csr_expansion_matches(self):
        d = vector_sparse_dense(16, 12, 4, 0.4)
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        csr = m.to_csr()
        assert np.allclose(csr.to_dense(np.float32), d.astype(np.float32))

    def test_transpose_round_trip(self):
        d = vector_sparse_dense(16, 12, 4, 0.4)
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        t = m.transpose()
        assert isinstance(t, RowVectorSparseMatrix)
        assert t.shape == (12, 16)
        assert np.array_equal(t.to_dense(), d.T)
        assert np.array_equal(t.transpose().to_dense(), d)

    def test_explicit_zeros_inside_vectors_kept(self):
        d = np.zeros((4, 4), dtype=np.float16)
        d[0, 1] = 1.0  # vector (rows 0-3, col 1) has 3 explicit zeros
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        assert m.nnz_vectors == 1
        assert m.nnz == 4  # stored scalars include the zeros
        assert np.array_equal(m.to_dense(), d)


class TestConstruction:
    def test_from_topology_shapes(self):
        row_ptr = np.array([0, 2, 3])
        col_idx = np.array([1, 5, 0])
        m = ColumnVectorSparseMatrix.from_topology(row_ptr, col_idx, 4, num_cols=8)
        assert m.shape == (8, 8)
        assert m.values.shape == (3, 4)
        assert not m.is_mask

    def test_from_topology_vectors_nonzero(self):
        rng = np.random.default_rng(0)
        row_ptr = np.arange(101) * 5
        col_idx = np.tile(np.arange(5), 100)
        m = ColumnVectorSparseMatrix.from_topology(row_ptr, col_idx, 2, 16, rng=rng)
        assert np.all(np.any(m.values != 0, axis=1))

    def test_mask_from_dense(self):
        mask = np.zeros((8, 6), dtype=bool)
        mask[0:4, 2] = True
        m = ColumnVectorSparseMatrix.mask_from_dense(mask, 4)
        assert m.is_mask
        assert m.nnz_vectors == 1
        assert np.array_equal(m.mask_dense(), mask)

    def test_with_values(self):
        mask = ColumnVectorSparseMatrix.mask_from_dense(np.ones((4, 3), bool), 4)
        vals = np.ones((3, 4), dtype=np.float16)
        filled = mask.with_values(vals)
        assert not filled.is_mask
        assert filled.nnz == 12


class TestValidation:
    def test_rows_must_divide(self):
        with pytest.raises(ValueError):
            ColumnVectorSparseMatrix((10, 4), 4, np.array([0, 0, 0]), np.array([]))

    def test_row_ptr_length(self):
        with pytest.raises(ValueError):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 0]), np.array([]))

    def test_col_out_of_range(self):
        with pytest.raises(ValueError):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 1, 1]), np.array([9]),
                                     np.zeros((1, 4), np.float16))

    def test_row_ptr_decreasing(self):
        with pytest.raises(ValueError):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 2, 1]), np.array([0, 1]),
                                     np.zeros((2, 4), np.float16))

    def test_values_shape(self):
        with pytest.raises(ValueError):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 1, 1]), np.array([0]),
                                     np.zeros((1, 2), np.float16))

    def test_fractional_row_ptr_rejected(self):
        with pytest.raises(ValueError, match="row_ptr must hold integers"):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 0.5, 1]), np.array([0]))

    def test_fractional_col_idx_rejected(self):
        with pytest.raises(ValueError, match="col_idx must hold integers"):
            ColumnVectorSparseMatrix((8, 4), 4, np.array([0, 1, 1]), np.array([2.7]))

    def test_fractional_row_vector_col_ptr_rejected(self):
        with pytest.raises(ValueError, match="col_ptr must hold integers"):
            RowVectorSparseMatrix((4, 8), 4, np.array([0, 0.5, 1]), np.array([0]))

    def test_fractional_row_vector_row_idx_rejected(self):
        with pytest.raises(ValueError, match="row_idx must hold integers"):
            RowVectorSparseMatrix((4, 8), 4, np.array([0, 1, 1]), np.array([2.7]))

    def test_mask_to_dense_raises(self):
        m = ColumnVectorSparseMatrix.mask_from_dense(np.ones((4, 2), bool), 4)
        with pytest.raises(ValueError):
            m.to_dense()


class TestMetrics:
    def test_sparsity(self):
        d = np.zeros((8, 10), dtype=np.float16)
        d[0:4, 0] = 1
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        assert m.density == pytest.approx(4 / 80)
        assert m.sparsity == pytest.approx(1 - 4 / 80)

    def test_memory_bytes(self):
        d = vector_sparse_dense(16, 16, 4, 0.5)
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        expected = m.row_ptr.nbytes + m.col_idx.nbytes + m.values.nbytes
        assert m.memory_bytes() == expected

    def test_vector_row_nnz(self):
        d = np.zeros((8, 4), dtype=np.float16)
        d[0:4, 0] = 1
        d[0:4, 2] = 1
        d[4:8, 3] = 1
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        assert m.vector_row_nnz().tolist() == [2, 1]

    def test_row_slice_views(self):
        d = vector_sparse_dense(16, 8, 4, 0.6)
        m = ColumnVectorSparseMatrix.from_dense(d, 4)
        cols, vals = m.row_slice(0)
        assert cols.size == m.vector_row_nnz()[0]
        assert vals.shape == (cols.size, 4)
