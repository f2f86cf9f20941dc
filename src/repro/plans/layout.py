"""Row-group layout shared by the compiled kernel schedules.

Every simulated tensor-core kernel walks a CVSE structure the same
way: the nonzeros of each vector row are padded up to whole *groups*
of a fixed size (4 vectors per ``mma.m8n8k4`` k-group, 8 output
columns per SDDMM sub-step, 16 vectors per ``wmma`` k-step, 32
columns per wmma SDDMM tile) and each group becomes one fragment of
a flat batch.  :func:`group_layout` flattens that walk once: it
assigns every stored vector its *slot* in the padded group space and
records the per-row group extents, from which the per-kernel
compilers derive their gather/scatter indices.

The executors keep their fragments and FP32 accumulators *batch-last*
— the batch (group or row) axis innermost in memory — and hand
:func:`~repro.hardware.tensor_core.mma_m8n8k4_batched` transposed
views of that storage, so its elementwise passes run the batch at unit
stride.  Batch-last gathers use ``np.take(..., axis=-1)``, which
allocates its result C-ordered; fancy indexing on a trailing axis
would lay the gathered axis outermost instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["GroupLayout", "group_layout", "accumulation_levels", "row_of_group"]


@dataclass(frozen=True)
class GroupLayout:
    """Padded group layout of a CVSE structure for one group size.

    ``slots`` is the heart of the plan: stored vector ``i`` (in
    storage order) lands at padded position ``slots[i]`` of the flat
    ``(num_groups * group)`` fragment space; the pad positions no
    stored vector owns stay zero-filled by the executor.
    """

    group: int                #: vectors per group (4 / 8 / 16 / 32)
    rows_act: np.ndarray      #: (R,) active vector rows, ascending
    counts: np.ndarray        #: (R,) stored vectors per active row
    groups: np.ndarray        #: (R,) ceil(counts / group)
    offsets: np.ndarray       #: (R+1,) exclusive cumsum of ``groups``
    slots: np.ndarray         #: (nnz,) padded slot of each stored vector
    num_groups: int           #: total groups across active rows


def group_layout(row_nnz: np.ndarray, group: int) -> GroupLayout:
    """Flatten the per-row group walk of a structure with ``row_nnz``.

    ``row_nnz`` is the stored-vector count of every vector row (zeros
    included — empty rows are dropped here, exactly as the interpreted
    walks ``continue`` past them).
    """
    row_nnz = np.asarray(row_nnz, dtype=np.int64)
    rows_act = np.flatnonzero(row_nnz)
    counts = row_nnz[rows_act]
    groups = -(-counts // group)  # ceil division
    offsets = np.zeros(rows_act.size + 1, dtype=np.int64)
    np.cumsum(groups, out=offsets[1:])
    starts = np.zeros(rows_act.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    within = np.arange(int(starts[-1]), dtype=np.int64) - np.repeat(starts[:-1], counts)
    slots = np.repeat(offsets[:-1] * group, counts) + within
    return GroupLayout(
        group=group,
        rows_act=rows_act,
        counts=counts,
        groups=groups,
        offsets=offsets,
        slots=slots,
        num_groups=int(offsets[-1]),
    )


def accumulation_levels(layout: GroupLayout) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Row order and per-depth group gathers for serial accumulation.

    ``row_order`` lists the active-row positions by group count,
    descending (stable, so ties keep ascending row order).  Level ``d``
    is the flat index of the ``d``-th group of each of the first
    ``n_d`` rows in that order, ``n_d`` being the number of rows with
    more than ``d`` groups — so the rows a level touches are always a
    prefix of the order, and an accumulator kept in that order adds
    level ``d`` into ``acc[..., :n_d]``.  Level by level this
    reproduces the interpreted walk's serial in-row FP32 accumulation
    order exactly (including which rows add nothing at deeper levels —
    padding never contributes a spurious ``+0.0``, which would flip a
    ``-0.0`` accumulator and break bit parity).
    """
    row_order = np.argsort(-layout.groups, kind="stable")
    first = layout.offsets[row_order]
    # rows with more than d groups, for d = 0 .. depth-1
    sizes = layout.groups.size - np.cumsum(np.bincount(layout.groups))[:-1]
    return row_order, tuple(first[:n] + d for d, n in enumerate(sizes.tolist()))


def row_of_group(layout: GroupLayout) -> np.ndarray:
    """Active-row position owning each flat group, in group order."""
    return np.repeat(np.arange(layout.rows_act.size, dtype=np.int64), layout.groups)
