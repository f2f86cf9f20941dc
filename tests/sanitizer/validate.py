"""Ownership validation of compiled execution plans.

A plan is a scatter/gather schedule; if it is wrong the executor does
not crash — it silently mis-attributes fragments, the exact failure
family the sanitizer's ownership checker exists for.  This pass
re-derives the schedule contract from the structure and checks the
plan against it:

* the active-row set and per-row counts match the structure;
* the group extents tile the flat fragment space exactly once
  (monotone offsets, consistent totals);
* the slot map is a within-bounds, order-preserving injection that
  packs each row's stored vectors contiguously from its first group
  slot (every pad slot is owned by *no* entry — the executor's
  zero-fill contract);
* the accumulation levels visit every group exactly once (SpMM), and
  the flat group->row map matches the group extents (SDDMM);
* the functional plans' permutation / expansion arrays reproduce the
  storage-order expansion.

``validate_plan`` returns human-readable finding strings;
:mod:`.plancheck` wraps them into ownership findings.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.plans import (
    FunctionalSddmmPlan,
    FunctionalSpmmPlan,
    GroupLayout,
    SddmmOctetPlan,
    SddmmWmmaPlan,
    SpmmOctetPlan,
    SpmmWmmaPlan,
    expand_vector_rows,
)

__all__ = ["validate_plan"]


def _layout_findings(lay: GroupLayout, row_nnz: np.ndarray, group: int) -> List[str]:
    out: List[str] = []
    if lay.group != group:
        out.append(f"group size {lay.group} != kernel group size {group}")
        return out
    expect_rows = np.flatnonzero(row_nnz)
    if not np.array_equal(lay.rows_act, expect_rows):
        out.append("active-row set does not match the structure's nonzero rows")
        return out
    if not np.array_equal(lay.counts, row_nnz[expect_rows]):
        out.append("per-row stored-vector counts do not match the structure")
        return out
    expect_groups = -(-lay.counts // group)
    if not np.array_equal(lay.groups, expect_groups):
        out.append("per-row group counts are not ceil(count / group)")
    if lay.offsets[0] != 0 or not np.array_equal(np.diff(lay.offsets), lay.groups):
        out.append("group offsets are not the exclusive cumsum of the group counts")
    if lay.num_groups != int(lay.offsets[-1]):
        out.append("total group count disagrees with the offsets")
    expect_slots = np.repeat(lay.offsets[:-1] * group, lay.counts) + (
        np.arange(int(lay.counts.sum()), dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(lay.counts)))[:-1], lay.counts)
    )
    if lay.slots.shape != expect_slots.shape:
        out.append("slot map size does not match the stored-vector count")
    elif not np.array_equal(lay.slots, expect_slots):
        out.append(
            "slot map does not pack each row contiguously from its first "
            "group slot (an entry owns a pad slot or two entries collide)"
        )
    return out


def _level_findings(levels, lay: GroupLayout) -> List[str]:
    out: List[str] = []
    gidx_all = (
        np.concatenate([g for _, g in levels])
        if levels
        else np.empty(0, dtype=np.int64)
    )
    if not np.array_equal(np.sort(gidx_all), np.arange(lay.num_groups)):
        out.append("accumulation levels do not visit every k-group exactly once")
    for depth, (sel, gidx) in enumerate(levels):
        if sel.size != gidx.size:
            out.append(f"level {depth}: sel/gidx length mismatch")
            break
        if sel.size and (sel.min() < 0 or sel.max() >= lay.rows_act.size):
            out.append(f"level {depth}: row selector out of range")
            break
        if not np.array_equal(gidx, lay.offsets[sel] + depth):
            out.append(f"level {depth}: gathered groups are not the rows' depth-{depth} groups")
            break
    return out


def _scalar_findings(plan, structure) -> List[str]:
    out: List[str] = []
    if plan.vector_length != structure.vector_length:
        out.append("vector length baked into the plan differs from the structure")
    if plan.num_vector_rows != structure.num_vector_rows:
        out.append("vector-row count baked into the plan differs from the structure")
    return out


def _kpad_findings(plan, step: int, k: Optional[int]) -> List[str]:
    if plan.k_pad % step:
        return [f"k_pad {plan.k_pad} is not a multiple of the {step}-deep k step"]
    if k is not None and plan.k_pad != -(-k // step) * step:
        return [f"k_pad {plan.k_pad} does not pad K={k} to the next multiple of {step}"]
    return []


def validate_plan(plan, structure, k: Optional[int] = None) -> List[str]:
    """Findings (empty when clean) for ``plan`` against ``structure``.

    ``k`` is the SDDMM inner dimension when known; the SpMM and
    functional plans ignore it.
    """
    row_nnz = structure.vector_row_nnz()
    if isinstance(plan, SpmmOctetPlan):
        return (
            _scalar_findings(plan, structure)
            + _layout_findings(plan.layout, row_nnz, 4)
            + _level_findings(plan.levels, plan.layout)
        )
    if isinstance(plan, SpmmWmmaPlan):
        return (
            _scalar_findings(plan, structure)
            + _layout_findings(plan.layout, row_nnz, 16)
            + _level_findings(plan.levels, plan.layout)
        )
    if isinstance(plan, (SddmmOctetPlan, SddmmWmmaPlan)):
        group, step = (8, 4) if isinstance(plan, SddmmOctetPlan) else (32, 16)
        row_map = plan.row_of_substep if isinstance(plan, SddmmOctetPlan) else plan.row_of_tile
        out = (
            _scalar_findings(plan, structure)
            + _layout_findings(plan.layout, row_nnz, group)
            + _kpad_findings(plan, step, k)
        )
        lay = plan.layout
        expect = np.repeat(np.arange(lay.rows_act.size, dtype=np.int64), lay.groups)
        if not np.array_equal(row_map, expect):
            out.append("flat group->row map does not match the group extents")
        return out
    if isinstance(plan, FunctionalSpmmPlan):
        out = []
        rows, cols = expand_vector_rows(structure)
        if plan.perm.shape != rows.shape or not np.array_equal(
            np.sort(plan.perm), np.arange(rows.size)
        ):
            out.append("perm is not a permutation of the expanded entries")
            return out
        sorted_rows = rows[plan.perm]
        if np.any(np.diff(sorted_rows) < 0):
            out.append("perm does not sort the expanded entries by scalar row")
        same_row = np.diff(sorted_rows) == 0
        if np.any(same_row & (np.diff(plan.perm) <= 0)):
            out.append("perm is not stable within a scalar row (storage order lost)")
        if not np.array_equal(plan.indices, cols[plan.perm]):
            out.append("CSR indices do not match the permuted expansion columns")
        counts = np.bincount(rows, minlength=structure.shape[0])
        indptr = np.zeros(structure.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if not np.array_equal(plan.indptr, indptr):
            out.append("CSR indptr does not match the expanded per-row counts")
        return out
    if isinstance(plan, FunctionalSddmmPlan):
        rows, cols = expand_vector_rows(structure)
        if not (np.array_equal(plan.rows, rows) and np.array_equal(plan.cols, cols)):
            return ["expanded (row, col) gather pairs do not match the structure"]
        return []
    return [f"unknown plan type {type(plan).__qualname__}"]
