"""Shared workload analysis for the SDDMM kernels.

All three SDDMM tilings launch a dense grid of ``ceil(M/V) x
ceil(N/TileN)`` CTAs (§6.4: "⌈M/V⌉ x ⌈N/32⌉ CTAs will be launched,
each processes an V x 32 output tile"); a CTA gathers only the nonzero
output vectors whose columns fall inside its window and exits
immediately when the window is empty.  The per-window occupancy
therefore drives every kernel's work, and is computed here once per
(topology, window width), vectorised over the whole mask: the five
SDDMM kernels and the K loop of an analytic sweep share it through the
``stats`` memo region, keyed on the mask's topology digest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..perfmodel import memo

__all__ = ["WindowProfile", "analyze_windows"]


@dataclass(frozen=True)
class WindowProfile:
    """Occupancy of the (vector-row x column-window) grid."""

    num_vector_rows: int
    num_windows: int
    window_cols: int
    #: nonzero vectors in each occupied window
    occupied_counts: np.ndarray
    total_vectors: int

    @property
    def num_ctas_total(self) -> int:
        """Launched CTAs (dense grid)."""
        return self.num_vector_rows * self.num_windows

    @property
    def num_ctas_active(self) -> int:
        """CTAs that find at least one nonzero vector."""
        return int(self.occupied_counts.size)

    def substeps(self, vectors_per_substep: int) -> float:
        """Total compacted sub-steps: sum of ceil(count / group)."""
        if self.occupied_counts.size == 0:
            return 0.0
        return float(np.ceil(self.occupied_counts / vectors_per_substep).sum())


@memo.memoised("stats")
def analyze_windows(mask: ColumnVectorSparseMatrix, window_cols: int) -> WindowProfile:
    """Count nonzero vectors per (vector row, column window) cell."""
    n_vr = mask.num_vector_rows
    n_win = -(-mask.shape[1] // window_cols)
    vrows = np.repeat(np.arange(n_vr, dtype=np.int64), mask.vector_row_nnz())
    wins = mask.col_idx // window_cols
    keys = vrows * n_win + wins
    counts = np.bincount(keys, minlength=n_vr * n_win)
    occupied = counts[counts > 0]
    return WindowProfile(
        num_vector_rows=n_vr,
        num_windows=n_win,
        window_cols=window_cols,
        occupied_counts=occupied,
        total_vectors=mask.nnz_vectors,
    )
