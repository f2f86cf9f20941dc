"""Property-based tests (hypothesis) on core invariants.

Covers: format round-trips for arbitrary vector-aligned patterns,
tensor-core identities, softmax normalisation, reuse-model bounds, and
cost-model monotonicity.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import ColumnVectorSparseMatrix
from repro.hardware import mma_m8n8k4
from repro.kernels import OctetSpmmKernel, SparseSoftmaxKernel, spmm_functional
from repro.perfmodel.events import estimate_dram_bytes
from repro.perfmodel.reuse import compulsory_ratio

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cvse_pattern(draw):
    v = draw(st.sampled_from([1, 2, 4, 8]))
    n_vr = draw(st.integers(1, 6))
    k = draw(st.integers(1, 24))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    keep = rng.random((n_vr, k)) < density
    vals = rng.uniform(-2, 2, (n_vr, v, k))
    vals = np.where(np.abs(vals) < 1e-2, 0.5, vals)  # keep vectors nonzero
    dense = (vals * keep[:, None, :]).reshape(n_vr * v, k).astype(np.float16)
    return dense, v


class TestFormatProperties:
    @SETTINGS
    @given(cvse_pattern())
    def test_cvse_round_trip(self, pattern):
        dense, v = pattern
        m = ColumnVectorSparseMatrix.from_dense(dense, v)
        assert np.array_equal(m.to_dense(), dense)

    @SETTINGS
    @given(cvse_pattern())
    def test_cvse_nnz_invariant(self, pattern):
        dense, v = pattern
        m = ColumnVectorSparseMatrix.from_dense(dense, v)
        assert m.nnz == m.nnz_vectors * v
        assert 0.0 <= m.sparsity <= 1.0
        assert m.vector_row_nnz().sum() == m.nnz_vectors

    @SETTINGS
    @given(cvse_pattern())
    def test_transpose_involution(self, pattern):
        dense, v = pattern
        m = ColumnVectorSparseMatrix.from_dense(dense, v)
        assert np.array_equal(m.transpose().transpose().to_dense(), dense)


class TestTensorCoreProperties:
    @SETTINGS
    @given(st.integers(0, 2**31))
    def test_mma_matches_fp32_product(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (8, 4)).astype(np.float16)
        b = rng.uniform(-1, 1, (4, 8)).astype(np.float16)
        out = mma_m8n8k4(a, b)
        assert np.allclose(out, a.astype(np.float32) @ b.astype(np.float32), atol=1e-3)

    @SETTINGS
    @given(st.integers(0, 2**31))
    def test_switch_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (8, 4)).astype(np.float16)
        b = rng.uniform(-1, 1, (4, 8)).astype(np.float16)
        c = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
        plain = mma_m8n8k4(a, b, c)
        switched = mma_m8n8k4(a, b, c, invert_groups=True, switch_steps=(0, 1, 2, 3))
        assert np.allclose(plain, switched)


class TestKernelProperties:
    @SETTINGS
    @given(cvse_pattern(), st.integers(1, 3), st.integers(0, 2**31))
    def test_spmm_linear_in_b(self, pattern, n_scale, seed):
        dense, v = pattern
        m = ColumnVectorSparseMatrix.from_dense(dense, v)
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, (dense.shape[1], 8 * n_scale)).astype(np.float16)
        out1 = spmm_functional(m, b, out_dtype=np.float32)
        out2 = spmm_functional(m, (2 * b.astype(np.float32)).astype(np.float16), out_dtype=np.float32)
        assert np.allclose(out2, 2 * out1, atol=0.1)

    @SETTINGS
    @given(st.floats(0.05, 0.95), st.integers(0, 2**31))
    def test_spmm_cycles_monotone_in_density(self, density, seed):
        rng = np.random.default_rng(seed)
        k = OctetSpmmKernel()

        def stats_at(p):
            keep = rng.random((64, 256)) < p
            vals = np.where(keep, 0.5, 0.0)
            a = ColumnVectorSparseMatrix.from_dense(
                np.repeat(vals, 4, axis=0).astype(np.float16), 4
            )
            return k._model.estimate(k.stats_for(a, 64)).time_us

        lo = stats_at(density * 0.5)
        hi = stats_at(min(1.0, density))
        assert hi >= lo * 0.95  # monotone up to model granularity

    @SETTINGS
    @given(cvse_pattern())
    def test_softmax_rows_normalised(self, pattern):
        dense, v = pattern
        m = ColumnVectorSparseMatrix.from_dense(dense, v)
        if m.nnz_vectors == 0:
            return
        out = SparseSoftmaxKernel().run(m).output.to_dense(np.float32)
        sums = out.sum(axis=1)
        nz = m.mask_dense().any(axis=1)
        assert np.all(sums[nz] > 0.97) and np.all(sums[nz] < 1.03)
        assert np.all(out >= 0)


class TestModelProperties:
    @SETTINGS
    @given(st.floats(1e-4, 1.0), st.integers(1, 64))
    def test_compulsory_ratio_bounds(self, p, g):
        r = compulsory_ratio(p, g)
        assert 0.0 < r <= 1.0
        # more sharing rows never increase the ratio
        assert compulsory_ratio(p, g + 1) <= r + 1e-12

    @SETTINGS
    @given(st.floats(1, 1e9), st.floats(1, 1e9))
    def test_dram_estimate_bounds(self, unique, extra):
        stream = unique + extra
        cap = 6 * 2**20
        out = estimate_dram_bytes(unique, stream, cap)
        assert unique - 1e-6 <= out <= stream + 1e-6
