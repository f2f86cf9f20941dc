"""Tests for the Ampere extrapolation spec."""

import numpy as np

from repro.hardware import AMPERE_A100, VOLTA_V100
from repro.kernels import DenseGemmKernel, OctetSpmmKernel


class TestAmpereSpec:
    def test_headline_numbers(self):
        assert AMPERE_A100.num_sms == 108
        # ~312 TFLOPS dense fp16
        assert 280 < AMPERE_A100.peak_tensor_tflops() < 340

    def test_kernels_run_on_ampere(self):
        import numpy as np
        from repro.formats import ColumnVectorSparseMatrix
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, (32, 48)).astype(np.float16)
        d[np.repeat(rng.random((8, 48)) < 0.7, 4, axis=0)] = 0
        a = ColumnVectorSparseMatrix.from_dense(d, 4)
        b = rng.uniform(-1, 1, (48, 64)).astype(np.float16)
        res = OctetSpmmKernel(AMPERE_A100).run(a, b)
        assert res.time_us > 0

    def test_dense_gemm_faster_on_ampere(self):
        kv = DenseGemmKernel(VOLTA_V100)
        ka = DenseGemmKernel(AMPERE_A100)
        tv = kv._model.estimate(kv.stats_for_shape(4096, 4096, 4096)).time_us
        ta = ka._model.estimate(ka.stats_for_shape(4096, 4096, 4096)).time_us
        assert ta < tv / 1.8  # ~2.3x compute + clock scaling
