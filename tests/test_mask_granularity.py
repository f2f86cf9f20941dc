"""Masks and CVSE operands built at vector granularity.

``band_random_cvse`` and ``mask_from_groups`` never build the dense
``(seq, seq)`` mask, and ``from_topology`` never draws its values as
one float64 array.  Each must match the whole-matrix construction it
replaced (``tests.oracles.masks``, the one-shot draw) in every index,
bit and generator post-state, and stay inside a memory budget that the
whole-matrix temporaries would break.
"""

import tracemalloc

import numpy as np
import pytest

from repro.formats import cvse
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.transformer import masks
from repro.transformer.masks import band_random_cvse, band_random_mask
from tests.oracles.masks import band_random_mask_reference, mask_from_groups_reference

MIB = 1 << 20


def _same_topology(got: ColumnVectorSparseMatrix, want: ColumnVectorSparseMatrix) -> None:
    assert got.is_mask and want.is_mask
    assert got.shape == want.shape and got.vector_length == want.vector_length
    assert np.array_equal(got.row_ptr, want.row_ptr)
    assert np.array_equal(got.col_idx, want.col_idx)


# (seq_len, V, band, sparsity): V ∈ {2, 3, 4, 8}; sparsity 0 and 1;
# band 0 and band >= seq; 4000/8 = 500 group rows, not a multiple of
# the 131-row chunk the real constant gives at that length
BAND_GRID = [
    (32, 8, 8, 0.7),
    (64, 2, 16, 0.0),
    (64, 4, 16, 1.0),
    (48, 4, 96, 0.5),
    (24, 3, 5, 0.6),
    (1000, 8, 0, 0.95),
    (4000, 8, 256, 0.9),
]


class TestBandRandomParity:
    @pytest.mark.parametrize("chunk", ["default", 100])
    @pytest.mark.parametrize("seq,v,band,sparsity", BAND_GRID)
    def test_matches_whole_matrix_build(self, monkeypatch, seq, v, band, sparsity, chunk):
        if chunk != "default":
            # a few group rows per chunk, so short masks end mid-chunk
            monkeypatch.setattr(masks, "_MASK_CHUNK_ELEMS", chunk)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = band_random_cvse(seq, v, band, sparsity, rng)
        dense = band_random_mask_reference(seq, v, band, sparsity, ref_rng)
        _same_topology(got, ColumnVectorSparseMatrix.mask_from_dense(dense, v))
        assert np.array_equal(got.mask_dense(), dense)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_dense_mask_is_the_cvse_mask(self):
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        assert np.array_equal(band_random_mask(64, 8, 16, 0.8, rng),
                              band_random_mask_reference(64, 8, 16, 0.8, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMaskFromGroups:
    @pytest.mark.parametrize("rows,k,v,density", [
        (0, 5, 4, 0.5), (1, 1, 8, 1.0), (3, 7, 2, 0.0), (6, 17, 3, 0.4), (64, 64, 8, 0.1),
    ])
    def test_matches_repeated_dense_encoding(self, rows, k, v, density):
        grp = np.random.default_rng(rows + k).random((rows, k)) < density
        got = ColumnVectorSparseMatrix.mask_from_groups(grp, v)
        want = mask_from_groups_reference(grp, v)
        _same_topology(got, want)
        assert np.array_equal(got.mask_dense(), want.mask_dense())


class TestBandRandomValidation:
    @pytest.mark.parametrize("build", [band_random_cvse, band_random_mask])
    @pytest.mark.parametrize("v", [0, -8])
    def test_vector_length_must_be_positive(self, build, v):
        with pytest.raises(ValueError, match="vector length"):
            build(64, v)

    @pytest.mark.parametrize("seq", [0, -8])
    def test_seq_len_must_be_positive(self, seq):
        with pytest.raises(ValueError, match="seq_len"):
            band_random_cvse(seq, 8)

    @pytest.mark.parametrize("sparsity", [1.5, -0.2, float("nan")])
    def test_sparsity_must_lie_in_unit_interval(self, sparsity):
        with pytest.raises(ValueError, match="sparsity"):
            band_random_cvse(64, 8, 16, sparsity)

    def test_band_must_be_non_negative(self):
        with pytest.raises(ValueError, match="band"):
            band_random_cvse(64, 8, -16)


def _one_shot_values(nnz: int, v: int, rng: np.random.Generator) -> np.ndarray:
    """``from_topology``'s values drawn as one ``(nnz, V)`` float64 array."""
    values = rng.uniform(-1.0, 1.0, size=(nnz, v)).astype(np.float16)
    values[~np.any(values != 0, axis=1), 0] = np.float16(0.5)
    return values


def _topology(nnz: int, num_cols: int = 64):
    return (np.array([0, nnz], dtype=np.int64),
            np.arange(nnz, dtype=np.int64) % num_cols)


class TestFromTopologyChunkedDraw:
    CHUNK = cvse._UNIFORM_CHUNK_VECTORS

    @pytest.mark.parametrize("nnz", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_values_match_one_shot_draw(self, nnz):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        row_ptr, col_idx = _topology(nnz)
        m = ColumnVectorSparseMatrix.from_topology(row_ptr, col_idx, 4, 64, rng=rng)
        want = _one_shot_values(nnz, 4, ref_rng)
        assert m.values.dtype == np.float16
        assert np.array_equal(m.values.view(np.uint16), want.view(np.uint16))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMemoryBudget:
    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_band_random_cvse_at_fig20_scale(self):
        # the dense (8192, 8192) bool alone is 64 MiB
        peak = self._peak(lambda: band_random_cvse(8192, 8, 409, 0.9, np.random.default_rng(0)))
        assert peak < 48 * MIB

    def test_from_topology_draws_one_chunk_at_a_time(self):
        v = 8
        row_ptr, col_idx = _topology(4 * TestFromTopologyChunkedDraw.CHUNK + 3)
        out = []
        peak = self._peak(lambda: out.append(ColumnVectorSparseMatrix.from_topology(
            row_ptr, col_idx, v, 64, rng=np.random.default_rng(0))))
        chunk_bytes = TestFromTopologyChunkedDraw.CHUNK * v * 8
        assert peak <= 2 * out[0].values.nbytes + chunk_bytes
