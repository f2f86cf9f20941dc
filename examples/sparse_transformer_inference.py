#!/usr/bin/env python
"""Sparse transformer inference (§7.4) end to end.

Trains a small byte-classification transformer with a fixed band+random
attention mask (8x1 vector constraint), then runs inference in the
three Table-4 modes — dense float, dense half, sparse half (through the
SDDMM -> sparse-softmax -> SpMM pipeline) — reporting accuracy, the
modelled per-layer latency breakdown (Figure 20) and peak attention
memory.

Run:  python examples/sparse_transformer_inference.py
"""

import numpy as np

from repro.transformer import (
    ByteTaskConfig,
    DenseAttention,
    SparseAttention,
    TrainConfig,
    TransformerClassifier,
    TransformerConfig,
    band_random_cvse,
    band_random_mask,
    dense_attention_peak,
    evaluate,
    make_dataset,
    mask_to_cvse,
    sparse_attention_peak,
    train,
)

SEQ = 128
rng = np.random.default_rng(0)

# --- data + mask -----------------------------------------------------------
task = ByteTaskConfig(seq_len=SEQ, markers=9, label_noise=0.3, seed=7)
tok_tr, lab_tr = make_dataset(256, task, rng)
tok_te, lab_te = make_dataset(128, task, np.random.default_rng(99))
mask = band_random_mask(SEQ, vector_length=8, band=16, sparsity=0.9,
                        rng=np.random.default_rng(3))
print(f"attention mask: {SEQ}x{SEQ}, density {mask.mean():.1%}, 8x1 vector constraint")

# --- train (dense fp32, mask applied additively) ----------------------------
model = TransformerClassifier(
    TransformerConfig(seq_len=SEQ, d_model=32, n_heads=2, n_layers=2, d_ff=64),
    np.random.default_rng(11),
)
losses = train(model, tok_tr, lab_tr, mask=mask, cfg=TrainConfig(epochs=5, lr=2e-3))
print(f"training loss: {losses[0]:.3f} -> {losses[-1]:.3f}")

# --- evaluate in the three Table-4 modes -------------------------------------
sa = SparseAttention(mask_to_cvse(mask, 8))
acc = {
    "Dense(float)": evaluate(model, tok_te, lab_te, mask=mask, mode="dense-float"),
    "Dense(half)": evaluate(model, tok_te, lab_te, mask=mask, mode="dense-half"),
    "Sparse(half)": evaluate(model, tok_te[:64], lab_te[:64],
                             mode="sparse-half", sparse_attention=sa),
}
print("\naccuracy:")
for mode, a in acc.items():
    print(f"  {mode:13s}: {a:.1%}")

# --- modelled latency breakdown at the paper's full scale -------------------
L, D, HEADS, BATCH = 4000, 64, 4, 8
big_mask = band_random_cvse(L, 8, 256, 0.9, np.random.default_rng(4))
t_sparse = SparseAttention(big_mask).estimate_batched(L, D, HEADS * BATCH)
t_dense = DenseAttention(precision="half").estimate_batched(L, D, HEADS * BATCH)
print(f"\nper-layer attention at l={L} (heads x batch = {HEADS * BATCH}, modelled):")
print(f"  {'stage':10s} {'dense(half)':>12s} {'sparse(half)':>13s}")
for stage in ("qk", "softmax", "av", "others"):
    print(f"  {stage:10s} {getattr(t_dense, stage):10.0f}us {getattr(t_sparse, stage):11.0f}us")
print(f"  {'total':10s} {t_dense.total:10.0f}us {t_sparse.total:11.0f}us"
      f"   -> {t_dense.total / t_sparse.total:.2f}x")

# --- peak attention memory ----------------------------------------------------
m_dense = dense_attention_peak(L, HEADS * D, HEADS, 1024, BATCH, "half")
m_sparse = sparse_attention_peak(big_mask, HEADS * D, HEADS, 1024, BATCH)
print(f"\npeak memory: dense(half) {m_dense.total_gb:.2f} GB vs "
      f"sparse(half) {m_sparse.total_mb:.0f} MB "
      f"({m_dense.total / m_sparse.total:.1f}x reduction; paper: 13.4x)")
