"""Table 4: sparse transformer — accuracy, throughput, peak memory.

Paper setup: LRA byte-level text classification, sequence length 4000,
4 layers x 4 heads x 64 features/head, batch 8; fixed band+random mask
at 90% sparsity with the 8x1 vector constraint; half-precision models
quantised directly without finetuning.

Substitutions (DESIGN.md): accuracy comes from a scaled-down trained
model (NumPy backprop on the synthetic byte task — what matters is the
*relative* accuracy of dense-float / dense-half / sparse-half, which
the paper reports as 65.12 / 65.09 / 65.01%); throughput and peak
memory come from the cost model evaluated at the paper's full
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kernels.gemm import DenseGemmKernel
from ..transformer.attention import DenseAttention, SparseAttention, launch_us
from ..transformer.lra import ByteTaskConfig, make_dataset
from ..transformer.masks import band_random_cvse
from ..transformer.memory import dense_attention_peak, sparse_attention_peak
from ..transformer.model import TransformerClassifier, TransformerConfig
from ..transformer.training import TrainConfig, evaluate, train
from .common import ExperimentResult

__all__ = ["run", "PaperConfig", "throughput_seq_per_s"]


@dataclass(frozen=True)
class PaperConfig:
    """The §7.4 full-scale configuration."""

    seq_len: int = 4000
    n_layers: int = 4
    n_heads: int = 4
    head_dim: int = 64
    d_ff: int = 1024
    batch: int = 8
    sparsity: float = 0.9
    band: int = 256
    vector_length: int = 8

    @property
    def d_model(self) -> int:
        return self.n_heads * self.head_dim


def _layer_gemms_us(cfg: PaperConfig, precision: str) -> float:
    """Projection + FFN GEMMs of one layer (batch folded into M)."""
    g = DenseGemmKernel(precision=precision)
    m = cfg.seq_len * cfg.batch
    d, f = cfg.d_model, cfg.d_ff
    t = 0.0
    for k, n in [(d, d)] * 4 + [(d, f), (f, d)]:  # Wq, Wk, Wv, Wo, FFN up, FFN down
        t += launch_us(g, g.stats_for_shape(m, k, n))
    return t


def throughput_seq_per_s(cfg: PaperConfig, mode: str) -> float:
    """Modelled inference throughput (sequences / second).

    Per layer the heads x batch attention problems dispatch as batched
    launches (one per stage); projections/FFN GEMMs fold the batch into
    their M dimension.
    """
    copies = cfg.n_heads * cfg.batch
    if mode == "sparse-half":
        # the mask's sequence length must divide V
        l = (cfg.seq_len // cfg.vector_length) * cfg.vector_length
        att = SparseAttention(
            band_random_cvse(l, cfg.vector_length, cfg.band, cfg.sparsity,
                             np.random.default_rng(44)))
        per_layer = att.estimate_batched(l, cfg.head_dim, copies).total
        gemm_prec = "half"
    else:
        prec = "half" if mode == "dense-half" else "single"
        datt = DenseAttention(precision=prec)
        per_layer = datt.estimate_batched(cfg.seq_len, cfg.head_dim, copies).total
        gemm_prec = prec
    att_us = cfg.n_layers * per_layer
    gemm_us = cfg.n_layers * _layer_gemms_us(cfg, gemm_prec)
    total_s = (att_us + gemm_us) / 1e6
    return cfg.batch / total_s


def run(
    quick: bool = True,
    paper_cfg: PaperConfig = PaperConfig(),
    rng: Optional[np.random.Generator] = None,
) -> ExperimentResult:
    """Regenerate Table 4 (sparse transformer end to end)."""
    rng = rng or np.random.default_rng(4242)

    # --- accuracy on the scaled-down trained model -------------------------
    # marker-noise 0.68 puts the task's Bayes ceiling near the paper's
    # mid-60s accuracy regime (tuned once; see lra.py)
    seq = 128
    task = ByteTaskConfig(seq_len=seq, markers=9, label_noise=0.68, seed=7)
    n_train = 384 if quick else 512
    n_test = 256
    tok_tr, lab_tr = make_dataset(n_train, task, np.random.default_rng(1))
    tok_te, lab_te = make_dataset(n_test, task, np.random.default_rng(777))
    sparse_mask = band_random_cvse(seq, vector_length=8, band=16, sparsity=0.9,
                                   rng=np.random.default_rng(2))
    mask = sparse_mask.mask_dense()
    model_cfg = TransformerConfig(
        seq_len=seq, d_model=32, n_heads=2, n_layers=2, d_ff=64
    )
    model = TransformerClassifier(model_cfg, np.random.default_rng(11))
    train(
        model, tok_tr, lab_tr, mask=mask,
        cfg=TrainConfig(epochs=6 if quick else 8, lr=2e-3, seed=5),
    )
    sparse_att = SparseAttention(sparse_mask)
    acc = {
        "Dense(float)": evaluate(model, tok_te, lab_te, mask=mask, mode="dense-float"),
        "Dense(half)": evaluate(model, tok_te, lab_te, mask=mask, mode="dense-half"),
        "Sparse(half)": evaluate(
            model, tok_te[: min(128, n_test)], lab_te[: min(128, n_test)],
            mode="sparse-half", sparse_attention=sparse_att,
        ),
    }

    # --- throughput + memory at the paper's full scale ----------------------
    thr = {
        "Dense(float)": throughput_seq_per_s(paper_cfg, "dense-float"),
        "Dense(half)": throughput_seq_per_s(paper_cfg, "dense-half"),
        "Sparse(half)": throughput_seq_per_s(paper_cfg, "sparse-half"),
    }
    l = (paper_cfg.seq_len // paper_cfg.vector_length) * paper_cfg.vector_length
    full_mask = band_random_cvse(l, paper_cfg.vector_length, paper_cfg.band,
                                 paper_cfg.sparsity, np.random.default_rng(12))
    mem = {
        "Dense(float)": dense_attention_peak(
            paper_cfg.seq_len, paper_cfg.d_model, paper_cfg.n_heads, paper_cfg.d_ff,
            paper_cfg.batch, "single",
        ).total,
        "Dense(half)": dense_attention_peak(
            paper_cfg.seq_len, paper_cfg.d_model, paper_cfg.n_heads, paper_cfg.d_ff,
            paper_cfg.batch, "half",
        ).total,
        "Sparse(half)": sparse_attention_peak(
            full_mask, paper_cfg.d_model, paper_cfg.n_heads, paper_cfg.d_ff, paper_cfg.batch,
        ).total,
    }

    res = ExperimentResult(
        name="table4",
        paper_artifact="Table 4",
        description="Sparse transformer: accuracy (scaled task), modelled throughput and peak memory",
    )
    for model_name in ("Dense(float)", "Dense(half)", "Sparse(half)"):
        res.rows.append(
            {
                "Model": model_name,
                "Accuracy": f"{100 * acc[model_name]:.2f}%",
                "Throughput (seq/s)": round(thr[model_name], 1),
                "Peak Memory": f"{mem[model_name] / 2**30:.2f} GB"
                if mem[model_name] > 2**29
                else f"{mem[model_name] / 2**20:.1f} MB",
            }
        )
    res.notes["paper accuracy"] = "65.12% / 65.09% / 65.01%"
    res.notes["paper throughput"] = "74.7 / 182.6 / 258 seq/s"
    res.notes["paper peak memory"] = "4.44 GB / 2.22 GB / 170.03 MB"
    res.notes["speedup sparse/dense-half"] = f"{thr['Sparse(half)'] / thr['Dense(half)']:.2f}x (paper: 1.41x)"
    res.notes["speedup sparse/dense-float"] = f"{thr['Sparse(half)'] / thr['Dense(float)']:.2f}x (paper: 3.45x)"
    res.notes["memory reduction vs half"] = f"{mem['Dense(half)'] / mem['Sparse(half)']:.1f}x (paper: 13.37x)"
    return res
