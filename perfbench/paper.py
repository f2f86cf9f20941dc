"""Simulated time and error against the paper's Table 4.

Everything here is computed from the program's public Table 4 model at
the paper's full configuration (``PaperConfig``): the attention terms
come from ``estimate_batched``, the projection/FFN GEMMs from
``DenseGemmKernel.estimate``, and the three ratios Table 4 prints
beside the paper's values give ``paper_log_err``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["MODES", "PAPER_RATIOS", "sim_terms", "sim_sum_errors", "table4_ratios",
           "printed", "paper_log_err", "ratios_from_notes"]

MODES = ("dense-float", "dense-half", "sparse-half")

#: the paper's values for the ratios table4 prints, with the number
#: of decimals table4 prints ours with
PAPER_RATIOS: Dict[str, Tuple[float, int]] = {
    "speedup sparse/dense-half": (1.41, 2),
    "speedup sparse/dense-float": (3.45, 2),
    "memory reduction vs half": (13.37, 1),
}


def _gemm_us(cfg, precision: str) -> float:
    """One layer's Wq/Wk/Wv/Wo projections and two FFN GEMMs, batch
    folded into M (shape-only operands: the estimate reads no values)."""
    from repro.kernels.gemm import DenseGemmKernel

    kern = DenseGemmKernel(precision=precision)
    m = cfg.seq_len * cfg.batch

    def est(k: int, n: int) -> float:
        a = np.broadcast_to(np.float16(0), (m, k))
        b = np.broadcast_to(np.float16(0), (k, n))
        return kern.estimate(a, b).time_us

    d, f = cfg.d_model, cfg.d_ff
    return 4 * est(d, d) + est(d, f) + est(f, d)


def sim_terms() -> Dict[str, float]:
    """``sim.<mode>.{qk,softmax,av,others,gemm}_us`` for the whole model
    (all layers, one batch) at the paper's configuration."""
    from repro.experiments.table4_transformer import PaperConfig
    from repro.transformer.attention import DenseAttention, SparseAttention
    from repro.transformer.masks import band_random_mask, mask_to_cvse

    cfg = PaperConfig()
    copies = cfg.n_heads * cfg.batch
    out: Dict[str, float] = {}
    for mode in MODES:
        if mode == "sparse-half":
            # the same seeded mask table4's throughput model draws
            l = (cfg.seq_len // cfg.vector_length) * cfg.vector_length
            mask = band_random_mask(l, cfg.vector_length, cfg.band, cfg.sparsity,
                                    np.random.default_rng(44))
            att = SparseAttention(mask_to_cvse(mask, cfg.vector_length))
            timing = att.estimate_batched(l, cfg.head_dim, copies)
            precision = "half"
        else:
            precision = "half" if mode == "dense-half" else "single"
            timing = DenseAttention(precision=precision).estimate_batched(
                cfg.seq_len, cfg.head_dim, copies)
        for term in ("qk", "softmax", "av", "others"):
            out[f"sim.{mode}.{term}_us"] = cfg.n_layers * getattr(timing, term)
        out[f"sim.{mode}.gemm_us"] = cfg.n_layers * _gemm_us(cfg, precision)
    return out


def sim_sum_errors(terms: Dict[str, float]) -> List[str]:
    """Each mode's terms must add up to the batch time implied by
    ``throughput_seq_per_s``."""
    from repro.experiments.table4_transformer import PaperConfig, throughput_seq_per_s

    cfg = PaperConfig()
    errors = []
    for mode in MODES:
        total = sum(v for k, v in terms.items() if k.startswith(f"sim.{mode}."))
        implied = cfg.batch / throughput_seq_per_s(cfg, mode) * 1e6
        if not math.isclose(total, implied, rel_tol=1e-9):
            errors.append(f"sim.{mode}.* add to {total!r} us, throughput implies {implied!r}")
    return errors


def table4_ratios() -> Dict[str, float]:
    """Table 4's three ratios at full precision, from the public model."""
    from repro.experiments.table4_transformer import PaperConfig, throughput_seq_per_s
    from repro.transformer.masks import band_random_mask, mask_to_cvse
    from repro.transformer.memory import dense_attention_peak, sparse_attention_peak

    cfg = PaperConfig()
    thr = {m: throughput_seq_per_s(cfg, m) for m in MODES}
    l = (cfg.seq_len // cfg.vector_length) * cfg.vector_length
    full_mask = mask_to_cvse(
        band_random_mask(l, cfg.vector_length, cfg.band, cfg.sparsity,
                         np.random.default_rng(12)),
        cfg.vector_length)
    dense_half = dense_attention_peak(cfg.seq_len, cfg.d_model, cfg.n_heads, cfg.d_ff,
                                      cfg.batch, "half").total
    sparse_half = sparse_attention_peak(full_mask, cfg.d_model, cfg.n_heads, cfg.d_ff,
                                        cfg.batch).total
    return {
        "speedup sparse/dense-half": thr["sparse-half"] / thr["dense-half"],
        "speedup sparse/dense-float": thr["sparse-half"] / thr["dense-float"],
        "memory reduction vs half": dense_half / sparse_half,
    }


def printed(ratios: Dict[str, float]) -> Dict[str, float]:
    """The ratios as table4 prints them."""
    return {k: float(f"{v:.{PAPER_RATIOS[k][1]}f}") for k, v in ratios.items()}


def paper_log_err(ratios: Dict[str, float]) -> float:
    """Mean |ln(ours / paper)| over the printed ratios."""
    ours = printed(ratios)
    return sum(abs(math.log(ours[k] / paper)) for k, (paper, _) in PAPER_RATIOS.items()) / len(
        PAPER_RATIOS)


_NOTE = re.compile(r"^([0-9.]+)x \(paper: ([0-9.]+)x\)$")


def ratios_from_notes(notes: Dict[str, object]) -> Dict[str, float]:
    """Parse table4's ``<ours>x (paper: <paper>x)`` notes; raises
    ``ValueError`` when a note is missing or its paper value changed."""
    out = {}
    for key, (paper, _) in PAPER_RATIOS.items():
        m = _NOTE.match(str(notes.get(key, "")))
        if m is None or float(m.group(2)) != paper:
            raise ValueError(f"table4 note {key!r} is {notes.get(key)!r}")
        out[key] = float(m.group(1))
    return out
