"""Batched kernel execution: many problems, one launch.

Attention layers dispatch heads x batch problems as a single batched
launch (cf. :func:`repro.perfmodel.events.scale_batch`); this module
provides the functional counterpart — run every problem's numerics and
model the *combined* launch, paying one launch overhead and filling the
machine with the merged grid.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..perfmodel.events import KernelStats
from ..perfmodel.latency import LatencyEstimate
from .base import Kernel
from .sddmm_octet import OctetSddmmKernel
from .spmm_octet import OctetSpmmKernel

__all__ = ["batched_spmm", "batched_sddmm"]


def _merge_stats(kernel: Kernel, stats_list: Sequence[KernelStats]) -> KernelStats:
    """Merge per-problem stats into one batched-launch stats object.

    Counts and traffic accumulate; the grid concatenates along its
    column dimension (each sub-problem keeps its own row extent — the
    scheduler only cares about the CTA total); the worst per-problem
    imbalance carries over.
    """
    if len(stats_list) == 1:
        return stats_list[0]
    from ..hardware.thread_hierarchy import LaunchConfig

    base = stats_list[0]
    total_ctas = sum(s.launch.num_ctas for s in stats_list)
    grid_x = base.launch.grid_x
    out = KernelStats(
        name=f"{base.name} xB{len(stats_list)}",
        launch=LaunchConfig(
            grid_x=grid_x,
            grid_y=max(1, -(-total_ctas // grid_x)),
            cta_size=base.launch.cta_size,
        ),
        resources=base.resources,
        program=base.program,
        ilp=base.ilp,
        stall_correlation=base.stall_correlation,
        work_imbalance=max(s.work_imbalance for s in stats_list),
    )
    for s in stats_list:
        out.instructions.merge(s.instructions)
        out.global_mem.merge(s.global_mem)
        out.shared_mem.merge(s.shared_mem)
        out.flops += s.flops
    return out


def batched_spmm(
    problems: Sequence[Tuple[ColumnVectorSparseMatrix, np.ndarray]],
    kernel: OctetSpmmKernel | None = None,
) -> Tuple[List[np.ndarray], LatencyEstimate]:
    """Run many SpMM problems as one batched launch.

    Returns per-problem outputs and the single combined latency.
    """
    if not problems:
        raise ValueError("empty batch")
    kernel = kernel or OctetSpmmKernel()
    outputs = [kernel._execute(a, b) for a, b in problems]
    stats = [kernel.stats_for(a, np.asarray(b).shape[1]) for a, b in problems]
    merged = _merge_stats(kernel, stats)
    return outputs, kernel._model.estimate(merged)


def batched_sddmm(
    problems: Sequence[Tuple[np.ndarray, np.ndarray, ColumnVectorSparseMatrix]],
    kernel: OctetSddmmKernel | None = None,
) -> Tuple[List[ColumnVectorSparseMatrix], LatencyEstimate]:
    """Run many SDDMM problems as one batched launch."""
    if not problems:
        raise ValueError("empty batch")
    kernel = kernel or OctetSddmmKernel()
    outputs = [kernel._execute(a, b, m) for a, b, m in problems]
    stats = [kernel.stats_for(m, np.asarray(a).shape[1]) for a, b, m in problems]
    merged = _merge_stats(kernel, stats)
    return outputs, kernel._model.estimate(merged)
