"""Figure 20: self-attention latency breakdown in various setups.

Panels: (l=2048, k=64), (l=4096, k=64), (l=8192, k=64), (l=8192,
k=256); bars: dense(half) vs sparse at 90/95/98% sparsity, decomposed
into QK^T∘C, Softmax, AV and Others.  The expectations the paper
states: SpMM + sparse softmax cut the Softmax and AV terms everywhere;
the SDDMM term loses to dense at k = 64 but wins at k = 256; whole-
layer speedups reach 1.35-1.78x / 1.48-2.09x / 1.57-2.30x at
90/95/98%.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..transformer.attention import AttentionTiming, DenseAttention, SparseAttention
from ..transformer.masks import band_random_cvse
from .common import ExperimentResult

__all__ = ["run", "SETUPS"]

SETUPS: Tuple[Tuple[int, int], ...] = ((2048, 64), (4096, 64), (8192, 64), (8192, 256))
SPARSITIES = (0.9, 0.95, 0.98)


def _row(l: int, k: int, config: str, t: AttentionTiming, speedup: float) -> dict:
    terms = {name: round(us, 1) for name, us in t.as_dict().items()}
    return {"l": l, "k": k, "config": config, **terms, "speedup": speedup}


def run(
    setups: Sequence[Tuple[int, int]] = SETUPS,
    sparsities: Sequence[float] = SPARSITIES,
    vector_length: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> ExperimentResult:
    """Regenerate Figure 20 (attention latency breakdowns)."""
    rng = rng or np.random.default_rng(20)
    res = ExperimentResult(
        name="fig20",
        paper_artifact="Figure 20",
        description="Self-attention latency breakdown (µs per head): dense vs sparse",
    )
    for l, k in setups:
        t_d = DenseAttention(precision="half").estimate_batched(l, k)
        res.rows.append(_row(l, k, "dense(half)", t_d, 1.0))
        for s in sparsities:
            # the band must share the density budget or the three
            # sparsity levels collapse into one mask at short l (a
            # fixed 256 band alone is 12.5% density at l=2048): give
            # half the budget to the band, half to random attention.
            band = max(vector_length * 2, min(256, int(l * (1.0 - s) / 2)))
            att = SparseAttention(band_random_cvse(l, vector_length, band, s, rng))
            t = att.estimate_batched(l, k)
            res.rows.append(
                _row(l, k, f"sparse {int(s * 100)}%", t, round(t_d.total / t.total, 2)))
    res.notes["paper whole-layer speedups"] = "1.35-1.78x (90%), 1.48-2.09x (95%), 1.57-2.30x (98%)"
    res.notes["paper SDDMM"] = "slower than dense at k=64, faster at k=256"
    return res
