"""Tests for the transformer substrate: masks, attention, model, training."""

import re

import numpy as np
import pytest

from repro.transformer import (
    ByteTaskConfig,
    DenseAttention,
    SparseAttention,
    TrainConfig,
    TransformerClassifier,
    TransformerConfig,
    band_random_mask,
    dense_attention_peak,
    evaluate,
    make_dataset,
    mask_to_cvse,
    sparse_attention_peak,
    train,
)
from repro.experiments import fig20_attention_latency as fig20
from repro.experiments.table4_transformer import PaperConfig, _layer_gemms_us
from repro.perfmodel.latency import LatencyModel
from repro.transformer.masks import band_random_cvse
from repro.transformer.model import _gelu, _gelu_grad, layer_norm, softmax

RNG = np.random.default_rng(23)


class TestMasks:
    def test_vector_constraint(self):
        m = band_random_mask(64, vector_length=8, band=16, sparsity=0.8, rng=RNG)
        grp = m.reshape(8, 8, 64)
        assert np.all(grp == grp[:, :1, :])  # constant within V-row groups

    def test_band_present(self):
        m = band_random_mask(64, 8, band=16, sparsity=0.9, rng=RNG)
        assert m[0, 0] and m[32, 32] and m[63, 63]

    def test_sparsity_close_to_target(self):
        m = band_random_mask(512, 8, band=32, sparsity=0.9, rng=RNG)
        assert 1 - m.mean() == pytest.approx(0.9, abs=0.03)

    def test_cvse_encodable(self):
        m = band_random_mask(64, 8, 16, 0.85, RNG)
        cv = mask_to_cvse(m, 8)
        assert np.array_equal(cv.mask_dense(), m)

    def test_seq_must_divide(self):
        with pytest.raises(ValueError):
            band_random_mask(65, 8)


class TestAttention:
    def _qkv(self, l=64, d=16):
        return [RNG.uniform(-1, 1, (l, d)).astype(np.float16) for _ in range(3)]

    def test_sparse_matches_masked_dense(self):
        q, k, v = self._qkv()
        mask = band_random_mask(64, 8, 16, 0.8, RNG)
        dense = DenseAttention(precision="half")
        out_d = dense(q, k, v, mask=mask)
        out_s = SparseAttention(mask_to_cvse(mask, 8))(q, k, v)
        assert np.allclose(
            out_s.astype(np.float32), out_d.astype(np.float32), atol=0.05
        )

    def test_dense_no_mask(self):
        q, k, v = self._qkv()
        out = DenseAttention(precision="single")(q, k, v)
        att = np.exp((q.astype(np.float32) @ k.astype(np.float32).T) / 4.0)
        att /= att.sum(1, keepdims=True)
        assert np.allclose(out, att @ v.astype(np.float32), atol=1e-2)

    def test_sparse_shape_check(self):
        mask = mask_to_cvse(band_random_mask(64, 8, 16, 0.8, RNG), 8)
        sa = SparseAttention(mask)
        q, k, v = self._qkv(l=32)
        with pytest.raises(ValueError):
            sa(q, k, v)

    def test_estimate_breakdown_positive(self):
        mask = mask_to_cvse(band_random_mask(128, 8, 16, 0.9, RNG), 8)
        t = SparseAttention(mask).estimate_batched(128, 64)
        assert t.qk > 0 and t.softmax > 0 and t.av > 0

    def test_batched_estimate_cheaper_than_serial(self):
        mask = mask_to_cvse(band_random_mask(512, 8, 32, 0.9, RNG), 8)
        sa = SparseAttention(mask)
        serial = 32 * sa.estimate_batched(512, 64).total
        batched = sa.estimate_batched(512, 64, 32).total
        assert batched < serial


class TestPricedLaunches:
    """Every launch the attention layers and Table 4 price moves at
    least as many bytes L2 -> L1 as DRAM -> L2."""

    @pytest.mark.parametrize("copies", [1, 32])
    def test_l2_traffic_covers_dram_traffic(self, monkeypatch, copies):
        priced = []
        estimate = LatencyModel.estimate

        def record(model, stats):
            priced.append(stats)
            return estimate(model, stats)

        monkeypatch.setattr(LatencyModel, "estimate", record)
        rng = np.random.default_rng(20)
        for l, k in fig20.SETUPS:
            DenseAttention(precision="half").estimate_batched(l, k, copies)
            for s in fig20.SPARSITIES:
                band = max(16, min(256, int(l * (1.0 - s) / 2)))  # as fig20 draws it
                mask = band_random_cvse(l, 8, band, s, rng)
                SparseAttention(mask).estimate_batched(l, k, copies)
        cfg = PaperConfig()
        for precision in ("single", "half"):
            DenseAttention(precision=precision).estimate_batched(
                cfg.seq_len, cfg.head_dim, copies)
            _layer_gemms_us(cfg, precision)
        l = (cfg.seq_len // cfg.vector_length) * cfg.vector_length
        mask = band_random_cvse(l, cfg.vector_length, cfg.band, cfg.sparsity, rng)
        SparseAttention(mask).estimate_batched(l, cfg.head_dim, copies)

        # fig20: 4 setups x (2 GEMMs + 3 sparsities x 3 kernels); Table 4:
        # 2 precisions x (2 + 6 GEMMs) + 3 sparse kernels
        assert len(priced) == 4 * (2 + 3 * 3) + 2 * (2 + 6) + 3
        below = [(st.name, st.global_mem.bytes_l2_to_l1, st.global_mem.bytes_dram_to_l2)
                 for st in priced
                 if st.global_mem.bytes_l2_to_l1 < st.global_mem.bytes_dram_to_l2]
        assert below == []


class TestMemoryAccounting:
    def test_dense_attention_dominant_term(self):
        mb = dense_attention_peak(4000, 256, 4, 1024, 8, "half")
        # 2 x 4 heads x 8 batch x 4000^2 x 2B ~ 2.05 GB
        assert mb.attention_matrices == 2 * 4 * 8 * 4000 * 4000 * 2
        assert 1.9 < mb.total_gb < 2.4

    def test_float_twice_half(self):
        f = dense_attention_peak(1024, 256, 4, 1024, 8, "single")
        h = dense_attention_peak(1024, 256, 4, 1024, 8, "half")
        assert f.attention_matrices == 2 * h.attention_matrices

    def test_sparse_memory_reduction(self):
        mask = mask_to_cvse(band_random_mask(4000, 8, 256, 0.9, RNG), 8)
        s = sparse_attention_peak(mask, 256, 4, 1024, 8)
        h = dense_attention_peak(4000, 256, 4, 1024, 8, "half")
        # paper: 13.37x; ours within the same regime
        assert 5 < h.total / s.total < 25


def _tile_reference_logits(model, tokens, mask, half):
    """Logits from one dense ``(L, L)`` score tile per batch row and head,
    the mask applied as ``softmax(np.where(mask, s, -1e9))``: the forward
    that the model's row-group attention replaces."""
    cfg = model.cfg

    def q16(a):
        return a.astype(np.float16).astype(np.float32) if half else a

    p = {k: (q16(w.astype(np.float32)) if half else w) for k, w in model.params.items()}
    B, L = tokens.shape
    hd = cfg.head_dim
    x = q16(p["emb"][tokens] + p["pos"][None, :L])
    for i in range(cfg.n_layers):
        h = q16(layer_norm(x, p[f"g1_{i}"], p[f"bn1_{i}"])[0])
        q, k, v = (q16(h @ p[f"w{n}{i}"]) for n in "qkv")
        outs = np.empty_like(q)
        for b in range(B):
            for hh in range(cfg.n_heads):
                sl = slice(hh * hd, (hh + 1) * hd)
                s = q[b, :, sl] @ k[b, :, sl].T / np.sqrt(hd)
                if mask is not None:
                    s = np.where(mask, s, -1e9)
                outs[b, :, sl] = q16(softmax(s) @ v[b, :, sl])
        x = x + q16(outs @ p[f"wo{i}"])
        h2 = q16(layer_norm(x, p[f"g2_{i}"], p[f"bn2_{i}"])[0])
        f1 = q16(_gelu(h2 @ p[f"w1_{i}"] + p[f"b1_{i}"])[0])
        x = x + q16(f1 @ p[f"w2_{i}"] + p[f"b2_{i}"])
    return x.mean(axis=1) @ p["w_cls"] + p["b_cls"]


def _masks():
    """``(32, 32)`` masks that split into different row groups: 8-row
    groups (band), one-row groups (unstructured), fully-masked rows, and
    no mask."""
    rng = np.random.default_rng(12)
    unstructured = rng.random((32, 32)) < 0.3
    empty_rows = unstructured.copy()
    empty_rows[5:7] = False
    return {
        "band": band_random_mask(32, 8, 8, 0.7, rng),
        "unstructured": unstructured,
        "empty_rows": empty_rows,
        "none": None,
    }


class TestModelAndTraining:
    CFG = TransformerConfig(seq_len=32, d_model=16, n_heads=2, n_layers=1, d_ff=32)
    CFG2 = TransformerConfig(seq_len=32, d_model=16, n_heads=2, n_layers=2, d_ff=32)

    @staticmethod
    def _check_grads(model, tok, lab, keys, mask=None):
        """Central finite differences against ``loss_and_grads`` at one
        entry per param; ``emb`` is probed at a token the batch uses."""
        _, grads = model.loss_and_grads(tok, lab, mask)
        for key in keys:
            eps = 1e-6
            idx = (1, 1) if model.params[key].ndim == 2 else (1,)
            if key == "emb":
                idx = (int(tok[0, 0]), 1)
            model.params[key][idx] += eps
            lp, _ = model.loss_and_grads(tok, lab, mask)
            model.params[key][idx] -= 2 * eps
            lm, _ = model.loss_and_grads(tok, lab, mask)
            model.params[key][idx] += eps
            num = (lp - lm) / (2 * eps)
            assert grads[key][idx] != 0.0, key
            assert grads[key][idx] == pytest.approx(num, abs=1e-6, rel=1e-4), key

    def test_gradient_check(self):
        model = TransformerClassifier(self.CFG, np.random.default_rng(3))
        tok, lab = make_dataset(2, ByteTaskConfig(seq_len=32, markers=4))
        self._check_grads(model, tok, lab, ("wq0", "wo0", "w2_0", "g2_0", "w_cls"))

    def test_gradient_check_masked_two_layers(self):
        model = TransformerClassifier(self.CFG2, np.random.default_rng(8))
        tok, lab = make_dataset(2, ByteTaskConfig(seq_len=32, markers=4))
        mask = band_random_mask(32, 8, 8, 0.6, np.random.default_rng(9))
        keys = ("wk0", "wv0", "w1_0", "b1_1", "g1_0", "bn2_1", "emb", "pos")
        self._check_grads(model, tok, lab, keys, mask)

    def test_gradient_check_unstructured_mask_with_empty_rows(self):
        model = TransformerClassifier(self.CFG2, np.random.default_rng(8))
        tok, lab = make_dataset(2, ByteTaskConfig(seq_len=32, markers=4))
        keys = ("wq0", "wk0", "wv0", "wo1", "wq1", "g1_1", "emb", "pos")
        self._check_grads(model, tok, lab, keys, _masks()["empty_rows"])

    # Row-group attention sums each row's kept entries in another order
    # than the dense tile's L, and multiplies by 1/sqrt(head_dim) where
    # the tile divides: float64 logits move at ulp level (1e-12 covers
    # it).  In the half modes such a move can flip the fp16 rounding of
    # an activation by one ulp, at most 2^-10 of its magnitude; with
    # O(1) logits, 2e-3 allows about two such flips to reach them.
    @pytest.mark.parametrize("mode, atol", [("dense-float", 1e-12), ("dense-half", 2e-3)])
    @pytest.mark.parametrize("name", ["band", "unstructured", "empty_rows", "none"])
    def test_logits_match_dense_tile_reference(self, name, mode, atol):
        model = TransformerClassifier(self.CFG2, np.random.default_rng(10))
        tok, _ = make_dataset(6, ByteTaskConfig(seq_len=32, markers=4))
        mask = _masks()[name]
        got, _ = model.forward(tok, mask=mask, mode=mode)
        ref = _tile_reference_logits(model, tok, mask, half=mode == "dense-half")
        assert np.allclose(got, ref, rtol=0, atol=atol)

    def test_training_reduces_loss(self):
        model = TransformerClassifier(self.CFG, np.random.default_rng(4))
        tok, lab = make_dataset(64, ByteTaskConfig(seq_len=32, markers=6, label_noise=0.1))
        losses = train(model, tok, lab, cfg=TrainConfig(epochs=3, lr=3e-3))
        assert losses[-1] < losses[0]

    def test_modes_agree_when_well_conditioned(self):
        model = TransformerClassifier(self.CFG, np.random.default_rng(5))
        tok, lab = make_dataset(32, ByteTaskConfig(seq_len=32, markers=6, label_noise=0.1))
        train(model, tok, lab, cfg=TrainConfig(epochs=3, lr=3e-3))
        acc_f = evaluate(model, tok, lab, mode="dense-float")
        acc_h = evaluate(model, tok, lab, mode="dense-half")
        assert abs(acc_f - acc_h) < 0.15

    def test_sparse_half_close_to_dense_half(self):
        model = TransformerClassifier(self.CFG, np.random.default_rng(6))
        mask = band_random_mask(32, 8, 8, 0.6, RNG)
        tok, lab = make_dataset(24, ByteTaskConfig(seq_len=32, markers=6, label_noise=0.1))
        train(model, tok, lab, mask=mask, cfg=TrainConfig(epochs=3, lr=3e-3))
        sa = SparseAttention(mask_to_cvse(mask, 8))
        logits_h, _ = model.forward(tok[:8], mask=mask, mode="dense-half")
        logits_s, _ = model.forward(tok[:8], mode="sparse-half", sparse_attention=sa)
        assert np.allclose(logits_h, logits_s, atol=0.05)

    def test_bad_mode_rejected(self):
        model = TransformerClassifier(self.CFG)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 32), dtype=np.int64), mode="int8")

    def test_sparse_mode_needs_attention(self):
        model = TransformerClassifier(self.CFG)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 32), dtype=np.int64), mode="sparse-half")

    @pytest.mark.parametrize("shape", [(16, 16), (32, 16), (64, 64)])
    def test_mask_shape_must_match_tokens(self, shape):
        model = TransformerClassifier(self.CFG)
        with pytest.raises(ValueError, match=re.escape(f"{shape}") + r".*\(1, 32\)"):
            model.forward(np.zeros((1, 32), dtype=np.int64), mask=np.ones(shape, dtype=bool))

    def test_tokens_longer_than_seq_len_rejected(self):
        model = TransformerClassifier(self.CFG)
        with pytest.raises(ValueError, match=r"\(1, 64\).*32"):
            model.forward(np.zeros((1, 64), dtype=np.int64))

    def test_sparse_mode_rejects_mask(self):
        model = TransformerClassifier(self.CFG)
        mask = band_random_mask(32, 8, 8, 0.6, RNG)
        sa = SparseAttention(mask_to_cvse(mask, 8))
        with pytest.raises(ValueError, match="sparse_attention"):
            model.forward(np.zeros((1, 32), dtype=np.int64), mask=mask,
                          mode="sparse-half", sparse_attention=sa)

    def test_num_parameters(self):
        model = TransformerClassifier(self.CFG)
        assert model.num_parameters() == sum(v.size for v in model.params.values())
        assert model.parameter_bytes("half") * 2 == model.parameter_bytes("single")


def _bits(a):
    return a.view(np.int64 if a.dtype == np.float64 else np.int32)


class TestMaskedSoftmax:
    """The training step's bit-exact rewrites: the reused GELU tanh."""

    def test_gelu_grad_with_forward_tanh_matches_recompute(self):
        x = np.random.default_rng(15).normal(0, 2, (4, 32, 16))
        c = 0.7978845608028654
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        dt = (1 - t**2) * c * (1 + 3 * 0.044715 * x**2)
        ref = 0.5 * (1 + t) + 0.5 * x * dt
        y, t_fwd = _gelu(x)
        assert np.array_equal(_bits(y), _bits(0.5 * x * (1.0 + t)))
        assert np.array_equal(_bits(_gelu_grad(x, t_fwd)), _bits(ref))


class TestByteTask:
    def test_shapes_and_labels(self):
        tok, lab = make_dataset(16, ByteTaskConfig(seq_len=64))
        assert tok.shape == (16, 64)
        assert set(np.unique(lab)) <= {0, 1}

    def test_learnable_signal_exists(self):
        """Marker counting should separate the classes above chance."""
        cfg = ByteTaskConfig(seq_len=128, markers=10, label_noise=0.1)
        tok, lab = make_dataset(400, cfg, np.random.default_rng(0))
        c0 = ((tok >= 16) & (tok < 24)).sum(1)
        c1 = ((tok >= 24) & (tok < 32)).sum(1)
        pred = (c1 > c0).astype(int)
        assert (pred == lab).mean() > 0.9
