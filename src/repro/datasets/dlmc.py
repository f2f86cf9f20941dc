"""Synthetic stand-in for the Deep Learning Matrix Collection (DLMC).

The paper benchmarks on "the sparse matrices from ResNet-50 with
magnitude pruning in the DLMC dataset" [22].  The dataset itself is a
download we substitute (DESIGN.md): what the kernels care about is the
*topology* — problem shapes of ResNet-50's convolutions-as-GEMM and the
row-imbalance statistics magnitude pruning produces — so we generate
matrices by magnitude-pruning Gaussian weights, which reproduces the
non-uniform per-row nonzero distributions of the real collection
(rows corresponding to important filters stay denser).

Shapes follow the ResNet-50 bottleneck blocks as im2col GEMMs
(K = C_in * kh * kw); the six sparsity levels are the paper's
{0.5, 0.7, 0.8, 0.9, 0.95, 0.98}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..formats.csr import CSRMatrix
from ..perfmodel import memo

__all__ = [
    "DlmcEntry",
    "RESNET50_SHAPES",
    "SPARSITIES",
    "magnitude_prune",
    "generate_topology",
    "dlmc_suite",
]

#: (rows, cols) of representative ResNet-50 weight GEMMs (output
#: channels x C_in*kh*kw), bottleneck 1x1 and 3x3 layers.
RESNET50_SHAPES: Tuple[Tuple[int, int], ...] = (
    (64, 256),
    (128, 512),
    (256, 512),
    (256, 1024),
    (512, 1024),
    (512, 2048),
    (256, 2304),    # 3x3 conv, 256 x (256*9)
    (512, 4608),    # 3x3 conv, 512 x (512*9)
    (1024, 512),
    (2048, 1024),   # the profiling benchmark of §3.1/§7.2.2
)

#: The paper's sparsity grid (Figures 4, 6, 17, 19).
SPARSITIES: Tuple[float, ...] = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98)


@dataclass(frozen=True)
class DlmcEntry:
    """One benchmark matrix: a CSR topology plus its metadata."""

    name: str
    shape: Tuple[int, int]
    sparsity: float
    csr: CSRMatrix

    @property
    def nnz(self) -> int:
        return self.csr.nnz


def magnitude_prune(
    weights: np.ndarray, sparsity: float
) -> np.ndarray:
    """Zero the smallest-|w| entries globally, like magnitude pruning.

    Returns a boolean keep-mask.  Global (not per-row) thresholding is
    what produces DLMC's characteristic row imbalance.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    flat = np.abs(weights).ravel()
    k = int(round(sparsity * flat.size))
    if k == 0:
        return np.ones(weights.shape, dtype=bool)
    # threshold at the k-th smallest magnitude
    thresh = np.partition(flat, k - 1)[k - 1]
    keep = np.abs(weights) > thresh
    # break ties deterministically to hit the target count exactly
    deficit = (flat.size - k) - int(keep.sum())
    if deficit > 0:
        ties = np.argwhere((np.abs(weights) == thresh) & ~keep)
        for idx in ties[:deficit]:
            keep[tuple(idx)] = True
    return keep


def generate_topology(
    shape: Tuple[int, int],
    sparsity: float,
    rng: Optional[np.random.Generator] = None,
) -> CSRMatrix:
    """Magnitude-pruned Gaussian weight matrix as a CSR topology.

    Per-row *and* per-column variances are themselves random: filters
    differ in importance (heavy-tailed row-nnz distribution) and so do
    input channels — an important channel keeps weights across many
    filters, which is the column correlation that gives the real DLMC
    matrices their cross-row reuse (validated against the trace-driven
    cache simulation in ``tests/test_trace_validation.py``).
    """
    rng = rng or np.random.default_rng(0)
    rows, cols = shape
    row_scale = rng.lognormal(mean=0.0, sigma=0.35, size=(rows, 1))
    col_scale = rng.lognormal(mean=0.0, sigma=0.6, size=(1, cols))
    w = rng.normal(size=shape) * row_scale * col_scale
    keep = magnitude_prune(w, sparsity)
    dense = np.where(keep, w, 0.0).astype(np.float32)
    return CSRMatrix.from_dense(dense, dtype=np.float16)


@memo.memoised("suite")
def dlmc_suite(
    shapes: Sequence[Tuple[int, int]] = RESNET50_SHAPES,
    sparsities: Sequence[float] = SPARSITIES,
    seed: int = 2021,
) -> List[DlmcEntry]:
    """The full benchmark suite: every shape at every sparsity."""
    out: List[DlmcEntry] = []
    rng = np.random.default_rng(seed)
    for shape in shapes:
        for s in sparsities:
            csr = generate_topology(shape, s, rng)
            out.append(
                DlmcEntry(
                    name=f"rn50_{shape[0]}x{shape[1]}_s{int(round(s * 100))}",
                    shape=shape,
                    sparsity=s,
                    csr=csr,
                )
            )
    # hash each topology before the suite region pickles the list, so
    # every copy it hands out carries the digest instead of rehashing
    for entry in out:
        memo.signature(entry.csr)
    return out
