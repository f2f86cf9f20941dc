"""memcheck: bounds/alignment validation of global-memory sector streams.

The trace generators in :mod:`repro.perfmodel.trace` produce, per CTA,
the 32 B-sector id streams a kernel's global loads would issue.  On
real hardware ``compute-sanitizer --tool memcheck`` polices exactly
this surface: every transaction must fall inside an allocated operand,
and the vectorised ``LDG.128`` paths the paper's kernels rely on
(guideline V) must stay 128 B-aligned or the coalescer silently adds
sectors.  Here the "allocations" are the documented operand address
map of each trace generator (dense operands first, sparse payload and
metadata after — see the module docstring of
:mod:`repro.perfmodel.trace`), so the checks are:

* **bounds** — every sector falls inside a declared operand region;
* **region purity** — a single op (one operand's access list for one
  CTA) never straddles unrelated operands;
* **transaction shape** — in regions declared as LDG.128 targets, each
  maximal run of contiguous sectors must start on the declared
  alignment and cover whole 4-sector (128 B) transactions; a run with
  a ragged tail is the sector-level signature of a misaligned vector
  load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix

from .findings import Checker, Finding

__all__ = [
    "Region",
    "AddressMap",
    "check_stream",
    "spmm_octet_address_map",
    "blocked_ell_address_map",
    "sddmm_address_map",
    "gemm_address_map",
]

_SECTOR = 32


@dataclass(frozen=True)
class Region:
    """One operand's byte extent in the trace address map."""

    name: str
    start: int            # first byte
    end: int              # one past the last byte
    #: required byte alignment of each contiguous-run start (relative
    #: to ``start``); None = scalar/streamed operand, no constraint
    align: Optional[int] = None
    #: each maximal contiguous sector run must be a whole number of
    #: this many sectors (4 = 128 B LDG.128 transactions)
    run_quantum: Optional[int] = None

    @property
    def sector_lo(self) -> int:
        return self.start // _SECTOR

    @property
    def sector_hi(self) -> int:
        return -(-self.end // _SECTOR)

    def contains_sectors(self, sectors: np.ndarray) -> bool:
        if sectors.size == 0:
            return True
        return bool(sectors.min() >= self.sector_lo and sectors.max() < self.sector_hi)


@dataclass(frozen=True)
class AddressMap:
    """Declared operand regions of one kernel's sector stream."""

    kernel: str
    regions: Tuple[Region, ...]

    @property
    def sector_end(self) -> int:
        return max(r.sector_hi for r in self.regions)

    def region_for_op(self, sectors: np.ndarray) -> Optional[Region]:
        """The single region containing every sector of one op."""
        for r in self.regions:
            if r.contains_sectors(sectors):
                return r
        return None


def _contiguous_runs(sectors: np.ndarray) -> Iterable[Tuple[int, int]]:
    """(start_sector, length) of each maximal run of consecutive ids.

    Within one op, repeats and backward jumps terminate a run — the
    generators emit segment-major monotone runs, so a well-formed
    LDG.128 op decomposes into whole-transaction runs.
    """
    if sectors.size == 0:
        return
    breaks = np.flatnonzero(np.diff(sectors) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [sectors.size]))
    for s, e in zip(starts, ends):
        yield int(sectors[s]), int(e - s)


def check_stream(
    stream: Iterable[Tuple[int, List[np.ndarray]]],
    amap: AddressMap,
    max_findings: int = 25,
) -> Tuple[List[Finding], dict]:
    """Validate one kernel's full CTA sector stream against its map.

    Returns (findings, counters); stops collecting (but keeps
    counting) after ``max_findings`` so pathological streams stay
    cheap to report.
    """
    findings: List[Finding] = []
    counters = {"ctas": 0, "ops": 0, "sectors": 0}

    def report(message: str, location: str) -> None:
        if len(findings) < max_findings:
            findings.append(
                Finding(Checker.MEMCHECK, amap.kernel, message, location)
            )

    for cta_id, ops in stream:
        counters["ctas"] += 1
        for op_i, op in enumerate(ops):
            sectors = np.asarray(op, dtype=np.int64)
            counters["ops"] += 1
            counters["sectors"] += int(sectors.size)
            if sectors.size == 0:
                continue
            loc = f"cta {cta_id}, op {op_i}"
            if sectors.min() < 0:
                report(f"negative sector id {int(sectors.min())}", loc)
                continue
            if sectors.max() >= amap.sector_end:
                report(
                    f"sector {int(sectors.max())} is past the end of the declared "
                    f"operands (last mapped sector {amap.sector_end - 1})",
                    loc,
                )
                continue
            region = amap.region_for_op(sectors)
            if region is None:
                inside = amap.regions[0]
                for r in amap.regions:
                    if r.sector_lo <= int(sectors[0]) < r.sector_hi:
                        inside = r
                        break
                report(
                    f"op straddles operand regions (starts in {inside.name!r}; "
                    "one op must address a single operand)",
                    loc,
                )
                continue
            if region.align is None and region.run_quantum is None:
                continue
            for run_start, run_len in _contiguous_runs(sectors):
                if region.align is not None:
                    rel = run_start * _SECTOR - region.start
                    if rel % region.align:
                        report(
                            f"transaction at byte {run_start * _SECTOR} in "
                            f"{region.name!r} breaks the {region.align} B alignment "
                            f"contract (offset {rel % region.align} B)",
                            loc,
                        )
                        break
                if region.run_quantum is not None and run_len % region.run_quantum:
                    report(
                        f"run of {run_len} sectors in {region.name!r} is not a "
                        f"whole number of {region.run_quantum}-sector (128 B) "
                        "transactions — misaligned or ragged vector load",
                        loc,
                    )
                    break
    return findings, counters


# --------------------------------------------------------------------- #
# per-kernel address maps (mirroring the trace generators' layout)
# --------------------------------------------------------------------- #
def spmm_octet_address_map(
    a: ColumnVectorSparseMatrix, n: int, elem_bytes: int = 2
) -> AddressMap:
    """Operand extents of :func:`repro.perfmodel.trace.octet_spmm_cta_sectors`."""
    eb = elem_bytes
    m, k = a.shape
    b_bytes = k * n * eb
    val_base = b_bytes
    idx_base = val_base + a.col_idx.size * a.vector_length * eb
    # B rows are fetched as 128 B LDG.128 segments (§5.4).  The
    # transaction-shape contract is only checkable when the geometry
    # keeps every segment 128 B-sized and -aligned (full 64-column
    # tiles, 128 B-aligned row stride); ragged tails are legal.
    tile_bytes = 64 * eb
    vectorised = n % 64 == 0 and (n * eb) % 128 == 0 and tile_bytes == 128
    return AddressMap(
        kernel="spmm-mma-octet",
        regions=(
            Region("B", 0, b_bytes, align=128 if vectorised else None,
                   run_quantum=4 if vectorised else None),
            Region("A.values", val_base, idx_base),
            Region("A.col_idx", idx_base, idx_base + a.col_idx.size * 8),
        ),
    )


def blocked_ell_address_map(
    ell: BlockedEllMatrix, n: int, elem_bytes: int = 2
) -> AddressMap:
    """Operand extents of :func:`repro.perfmodel.trace.blocked_ell_cta_sectors`."""
    eb = elem_bytes
    m, k = ell.shape
    b_bytes = k * n * eb
    val_base = b_bytes
    val_bytes = ell.num_block_rows * ell.ell_width * ell.block_size * ell.block_size * eb
    # full 128-column tiles at a 128 B-aligned row stride load as whole
    # 128 B transactions; anything else legitimately produces tails
    vectorised = n % 128 == 0 and (n * eb) % 128 == 0
    return AddressMap(
        kernel="spmm-blocked-ell",
        regions=(
            Region("B", 0, b_bytes, align=128 if vectorised else None,
                   run_quantum=4 if vectorised else None),
            Region("A.values", val_base, val_base + val_bytes),
        ),
    )


def sddmm_address_map(
    mask: ColumnVectorSparseMatrix, k: int, elem_bytes: int = 2
) -> AddressMap:
    """Operand extents of the shared SDDMM stream (octet and wmma)."""
    eb = elem_bytes
    m, n_out = mask.shape
    a_bytes = m * k * eb
    b_base = a_bytes
    meta_base = b_base + k * n_out * eb
    return AddressMap(
        kernel="sddmm",
        regions=(
            Region("A", 0, a_bytes),
            # B columns gather as k*eb contiguous runs (column-major
            # LDG.128 — §6.4); k*eb is a multiple of 128 in the paper's
            # K grid, so runs are whole 128 B transactions
            Region("B", b_base, meta_base,
                   align=128 if (k * eb) % 128 == 0 else None,
                   run_quantum=4 if (k * eb) % 128 == 0 else None),
            Region("mask.meta", meta_base, meta_base + mask.col_idx.size * 8),
        ),
    )


def gemm_address_map(m: int, k: int, n: int, elem_bytes: int = 2) -> AddressMap:
    """Operand extents of :func:`repro.perfmodel.trace.gemm_cta_sectors`."""
    eb = elem_bytes
    a_bytes = m * k * eb
    return AddressMap(
        kernel="dense-gemm",
        regions=(
            Region("A", 0, a_bytes),
            Region("B", a_bytes, a_bytes + k * n * eb),
        ),
    )
