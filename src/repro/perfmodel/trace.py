"""Trace-driven cache validation.

The kernels' ``bytes_l2_to_l1`` figures are computed analytically (the
inter-CTA reuse model of :mod:`repro.perfmodel.reuse`).  This module
generates the *actual* sector-address streams of the SpMM, SDDMM and
dense GEMM kernels and replays them through the
:class:`~repro.hardware.cache` simulators, so the analytic estimates
can be validated end to end (``tests/test_trace_validation.py``) and
Figures 5/18 can be cross-checked against a real cache simulation
rather than a formula (``repro-experiments --trace``).

Method: CTAs are distributed breadth-first over SMs (CTA ``i`` starts
on SM ``i % num_sms``), so one SM's L1 sees every ``num_sms``-th CTA.
We replay the streams of the CTAs mapped to a sample of SMs,
interleaving the co-resident CTAs' accesses round-robin (they execute
concurrently), and scale the measured per-SM fill traffic back up.
The L1 misses of the sampled SMs additionally propagate — in batch
order — through one shared L2, giving a sampled DRAM-side estimate.

The replay engine is :class:`~repro.hardware.cache.VectorSectorCache`
by default; a whole co-resident window's interleaved accesses are
precomputed as one index order and fed through the cache as a single
batch (batching is semantics-free: the caches process a batch strictly
in order).  :func:`replay_l1_reference` keeps the original
op-at-a-time, scalar-engine walk as the pinned reference;
``benchmarks/bench_trace.py`` asserts the two produce identical
:class:`TraceResult`\\ s and records the speedup.

Address map (documented once, shared by all generators):

* the dense operand(s) start at address 0 (``B`` for SpMM; ``A`` then
  ``B`` for SDDMM and GEMM);
* the sparse payload (CVSE ``values`` then ``col_idx``, or the
  Blocked-ELL ``values``) follows;
* output stores are excluded (L1 missed sectors is a load counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import site as fault_site
from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware import cache as hw_cache
from ..hardware.cache import ENGINES, SectorCache
from ..hardware.config import GPUSpec, default_spec
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from . import memo

__all__ = [
    "TraceResult",
    "octet_spmm_cta_sectors",
    "blocked_ell_cta_sectors",
    "octet_sddmm_cta_sectors",
    "wmma_sddmm_cta_sectors",
    "gemm_cta_sectors",
    "replay_l1",
    "replay_l1_reference",
    "trace_octet_spmm",
    "trace_blocked_ell",
    "trace_octet_sddmm",
    "trace_wmma_sddmm",
    "trace_gemm",
]

_SECTOR = 32


@dataclass
class TraceResult:
    """Outcome of replaying a kernel's access trace through an L1."""

    sampled_ctas: int
    total_ctas: int
    sampled_fill_bytes: int
    sector_accesses: int
    sampled_l2_fill_bytes: int = 0

    @property
    def bytes_l2_to_l1(self) -> float:
        """Device-wide estimate: sampled fills scaled by CTA coverage."""
        if self.sampled_ctas == 0:
            return 0.0
        return self.sampled_fill_bytes * (self.total_ctas / self.sampled_ctas)

    @property
    def bytes_dram_to_l2(self) -> float:
        """Device-wide DRAM-side estimate, same CTA-coverage scaling.

        Rougher than the L1 figure: the real L2 is shared by all SMs,
        the sampled one only sees the sampled SMs' misses.
        """
        if self.sampled_ctas == 0:
            return 0.0
        return self.sampled_l2_fill_bytes * (self.total_ctas / self.sampled_ctas)

    @property
    def l1_missed_sectors(self) -> float:
        """Device-wide missed-sector estimate (the Figure 5 counter)."""
        return self.bytes_l2_to_l1 / _SECTOR

    @property
    def l1_hit_rate(self) -> float:
        if self.sector_accesses == 0:
            return 0.0
        return 1.0 - (self.sampled_fill_bytes / _SECTOR) / self.sector_accesses


def _range_sectors(base_byte: int, nbytes: int) -> np.ndarray:
    first = base_byte // _SECTOR
    last = (base_byte + nbytes - 1) // _SECTOR
    return np.arange(first, last + 1, dtype=np.int64)


def _segment_sectors(starts: np.ndarray, seg_bytes: int) -> np.ndarray:
    """Sector ids of equal-length byte segments, one row per start.

    Handles unaligned starts: each segment covers every sector it
    touches, ragged tails removed, order preserved (segment-major).
    """
    starts = starts.astype(np.int64)
    first = starts // _SECTOR
    last = (starts + seg_bytes - 1) // _SECTOR
    width = int((last - first).max()) + 1 if starts.size else 0
    grid = first[:, None] + np.arange(width, dtype=np.int64)[None, :]
    keep = grid <= last[:, None]
    return grid[keep]


def octet_spmm_cta_sectors(
    a: ColumnVectorSparseMatrix,
    n: int,
    tile_n: int = 64,
    elem_bytes: int = 2,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Yield ``(cta_id, [sector-id arrays])`` for the octet SpMM.

    Per CTA (vector row ``r``, column tile ``j``): the B-row segments of
    its nonzeros (one 128B line per vector, via LDG.128), plus the
    values/indices stream.  ``elem_bytes`` is 2 for the half-precision
    kernels; the Figure 5 single-precision cross-check passes 4.
    """
    eb = elem_bytes
    m, k = a.shape
    n_tiles = -(-n // tile_n)
    b_bytes = k * n * eb
    val_base = b_bytes
    idx_base = val_base + a.col_idx.size * a.vector_length * eb
    cta = 0
    for jt in range(n_tiles):
        col_byte = jt * tile_n * eb
        seg_bytes = min(tile_n, n - jt * tile_n) * eb
        for r in range(a.num_vector_rows):
            lo, hi = a.row_ptr[r], a.row_ptr[r + 1]
            cols = a.col_idx[lo:hi]
            ops: List[np.ndarray] = []
            if cols.size:
                # one contiguous segment per nonzero's B row
                starts = cols.astype(np.int64) * (n * eb) + col_byte
                ops.append(_segment_sectors(starts, seg_bytes))
                # values stream (contiguous for the row slice)
                ops.append(_range_sectors(val_base + lo * a.vector_length * eb,
                                          cols.size * a.vector_length * eb))
                ops.append(_range_sectors(idx_base + lo * 8, cols.size * 8))
            # declared fault-injection site: sector-address generation SDC.
            # Reachable from the memoised trace_octet_spmm() — sanctioned
            # because memoise() bypasses the cache entirely while an
            # injector is armed, so corrupted streams are never cached or
            # published to the shared tier.
            yield cta, fault_site("trace.octet_spmm.ops", ops)  # repro: ignore[memo-key-soundness]
            cta += 1


def blocked_ell_cta_sectors(
    ell: BlockedEllMatrix,
    n: int,
    tile_n: int = 128,
    elem_bytes: int = 2,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Same for the Blocked-ELL kernel (block-row x 128-column tiles)."""
    eb = elem_bytes
    m, k = ell.shape
    b = ell.block_size
    n_tiles = -(-n // tile_n)
    b_bytes = k * n * eb
    val_base = b_bytes
    cta = 0
    for jt in range(n_tiles):
        col_byte = jt * tile_n * eb
        seg_bytes = min(tile_n, n - jt * tile_n) * eb
        for br in range(ell.num_block_rows):
            cols = ell.col_blocks[br]
            cols = cols[cols >= 0]
            ops: List[np.ndarray] = []
            if cols.size:
                # each block selects b consecutive B rows
                rows = (cols.astype(np.int64)[:, None] * b + np.arange(b)[None, :]).ravel()
                starts = rows * (n * eb) + col_byte
                ops.append(_segment_sectors(starts, seg_bytes))
                slot = br * ell.ell_width
                ops.append(_range_sectors(val_base + slot * b * b * eb,
                                          cols.size * b * b * eb))
            yield cta, ops
            cta += 1


def _sddmm_cta_sectors(
    mask: ColumnVectorSparseMatrix,
    k: int,
    tile_n: int,
    elem_bytes: int,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Shared SDDMM stream: per CTA (vector row, 32-column window).

    Loads: the window's nonzero B columns (B stored column-major, so a
    column is one contiguous ``k * eb`` run — §6.4's coalesced LDG.128
    gather), the CTA's V rows of A (row-major), and the window's
    column-index metadata (8 B per nonzero).  Empty windows exit
    immediately (no ops), matching ``analyze_windows``.
    """
    eb = elem_bytes
    m, n_out = mask.shape
    v = mask.vector_length
    a_base = 0
    b_base = m * k * eb
    meta_base = b_base + k * n_out * eb
    n_windows = -(-n_out // tile_n)
    cta = 0
    for w in range(n_windows):
        col_lo, col_hi = w * tile_n, min(n_out, (w + 1) * tile_n)
        for r in range(mask.num_vector_rows):
            lo, hi = mask.row_ptr[r], mask.row_ptr[r + 1]
            cols_all = mask.col_idx[lo:hi]
            w0, w1 = np.searchsorted(cols_all, (col_lo, col_hi))
            cols = cols_all[w0:w1]
            ops: List[np.ndarray] = []
            if cols.size:
                starts = b_base + cols.astype(np.int64) * (k * eb)
                ops.append(_segment_sectors(starts, k * eb))
                ops.append(_range_sectors(a_base + r * v * k * eb, v * k * eb))
                ops.append(_range_sectors(meta_base + (lo + w0) * 8, cols.size * 8))
            yield cta, ops
            cta += 1


def octet_sddmm_cta_sectors(
    mask: ColumnVectorSparseMatrix,
    k: int,
    tile_n: int = 32,
    elem_bytes: int = 2,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Sector stream of the octet SDDMM (§6.3-6.4, TileN = 32).

    Registers-only staging: replay with the full L1 and the deep
    co-resident window (the defaults of :func:`replay_l1`).
    """
    return _sddmm_cta_sectors(mask, k, tile_n, elem_bytes)


def wmma_sddmm_cta_sectors(
    mask: ColumnVectorSparseMatrix,
    k: int,
    tile_n: int = 32,
    elem_bytes: int = 2,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Sector stream of the warp-tiling WMMA SDDMM (§6.2).

    The *global* stream is pattern-identical to the octet kernel's (it
    gathers the same nonzero B columns and A rows; the 4x LHS
    replication happens in registers, the staging in shared memory) —
    the kernels differ in where the bytes land, not which bytes move.
    Replay it with a carveout-reduced ``l1_data_bytes`` and a shallower
    ``coresident`` window to express the shared-memory staging, as the
    analytic model does.
    """
    return _sddmm_cta_sectors(mask, k, tile_n, elem_bytes)


def gemm_cta_sectors(
    m: int,
    k: int,
    n: int,
    tile_m: int = 128,
    tile_n: int = 128,
    elem_bytes: int = 2,
) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Sector stream of the tiled dense GEMM (the Figure 5 baseline).

    Per CTA (row tile ``it``, column tile ``jt``): the A tile's rows
    (row-major, full K — staged k-step by k-step but each byte loaded
    once per CTA) and the B tile's row segments (row-major K x N).
    """
    eb = elem_bytes
    a_base = 0
    b_base = m * k * eb
    mt = -(-m // tile_m)
    nt = -(-n // tile_n)
    cta = 0
    for jt in range(nt):
        col_byte = jt * tile_n * eb
        seg_bytes = min(tile_n, n - jt * tile_n) * eb
        # B lives after A in the address map; omitting b_base would
        # alias the B stream onto A's range and fake inter-operand reuse
        b_starts = b_base + np.arange(k, dtype=np.int64) * (n * eb) + col_byte
        for it in range(mt):
            row_lo = it * tile_m
            rows = min(tile_m, m - row_lo)
            ops = [
                _range_sectors(a_base + row_lo * k * eb, rows * k * eb),
                _segment_sectors(b_starts, seg_bytes),
            ]
            yield cta, ops
            cta += 1


def _interleave(window: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
    """Round-robin interleave order of a co-resident window's op lists.

    Pass ``r`` takes the ``r``-th op of every resident CTA that still
    has one — the exact order the old ``pop(0)`` walk produced, now
    precomputed by index in O(total ops).
    """
    depth = max((len(ops) for ops in window), default=0)
    return [
        ops[r]
        for r in range(depth)
        for ops in window
        if r < len(ops)
    ]


def replay_l1(
    cta_stream: Iterable[Tuple[int, List[np.ndarray]]],
    spec: Optional[GPUSpec] = None,
    l1_data_bytes: Optional[int] = None,
    coresident: int = 32,
    sample_sms: int = 1,
    engine: str = "vector",
) -> TraceResult:
    """Replay the CTAs mapped to ``sample_sms`` SMs through one L1 each.

    CTA ``i`` is assigned to SM ``i % num_sms`` (breadth-first launch);
    within an SM, the ``coresident`` concurrently-running CTAs'
    per-vector accesses interleave round-robin.  The interleave order
    is precomputed per window and the whole window goes through the
    cache as one batch; each window's L1 misses then propagate through
    a single shared L2.  ``engine`` picks the cache implementation
    ("vector" is bit-identical to "scalar" and ~10-40x faster).
    """
    spec = spec or default_spec()
    l1_bytes = l1_data_bytes if l1_data_bytes is not None else spec.l1_bytes_per_sm
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {sorted(ENGINES)}, got {engine!r}")
    cache_cls = ENGINES[engine]
    l1s = [cache_cls(l1_bytes, spec.line_bytes, spec.sector_bytes, spec.l1_ways)
           for _ in range(sample_sms)]
    l2 = cache_cls(spec.l2_bytes, spec.line_bytes, spec.sector_bytes, ways=16)
    fills = 0
    l2_fills = 0
    accesses = 0
    sampled = 0
    total = 0
    # per sampled SM: the co-resident window of CTA op-lists
    windows: List[List[List[np.ndarray]]] = [[] for _ in range(sample_sms)]

    def drain(sm: int) -> None:
        nonlocal fills, l2_fills, accesses
        ops = _interleave(windows[sm])
        windows[sm].clear()
        if not ops:
            return
        batch = np.concatenate(ops) if len(ops) > 1 else ops[0]
        obs_metrics.observe("trace.replay.batch_size", batch.size)
        missed = l1s[sm].access_sectors(batch)
        fills += missed.size * _SECTOR
        accesses += batch.size
        if missed.size:
            l2_fills += l2.access_sectors(missed).size * _SECTOR

    with obs_tracing.span("trace.replay", engine=engine,
                          coresident=coresident, sample_sms=sample_sms) as sp:
        for cta_id, ops in cta_stream:
            total += 1
            sm = cta_id % spec.num_sms
            if sm >= sample_sms:
                continue
            sampled += 1
            windows[sm].append(list(ops))
            if len(windows[sm]) >= coresident:
                drain(sm)
        for sm in range(sample_sms):
            drain(sm)
        sp.set(sampled_ctas=sampled, total_ctas=total, sector_accesses=accesses)
    if obs_metrics.enabled():
        obs_metrics.counter_add("trace.replay.runs")
        obs_metrics.counter_add("trace.replay.sector_accesses", accesses)
        for l1 in l1s:
            hw_cache.record_metrics("l1", l1.stats)
        hw_cache.record_metrics("l2", l2.stats)
    return TraceResult(
        sampled_ctas=sampled,
        total_ctas=total,
        sampled_fill_bytes=fills,
        sector_accesses=accesses,
        sampled_l2_fill_bytes=l2_fills,
    )


def replay_l1_reference(
    cta_stream: Iterable[Tuple[int, List[np.ndarray]]],
    spec: Optional[GPUSpec] = None,
    l1_data_bytes: Optional[int] = None,
    coresident: int = 32,
    sample_sms: int = 1,
) -> TraceResult:
    """The pinned reference replay: scalar engine, ``pop(0)`` interleave.

    Keeps the original op-at-a-time round-robin drain verbatim so the
    batched :func:`replay_l1` has an executable specification to be
    compared against (`tests/test_trace_validation.py`,
    ``benchmarks/bench_trace.py``); the two must return equal
    :class:`TraceResult`\\ s on any stream.
    """
    spec = spec or default_spec()
    l1_bytes = l1_data_bytes if l1_data_bytes is not None else spec.l1_bytes_per_sm
    caches = {s: SectorCache(l1_bytes, spec.line_bytes, spec.sector_bytes, spec.l1_ways)
              for s in range(sample_sms)}
    l2 = SectorCache(spec.l2_bytes, spec.line_bytes, spec.sector_bytes, ways=16)
    fills = 0
    l2_fills = 0
    accesses = 0
    sampled = 0
    total = 0
    windows: dict = {s: [] for s in range(sample_sms)}

    def drain(sm: int) -> None:
        nonlocal fills, l2_fills, accesses
        cache = caches[sm]
        window = windows[sm]
        # interleave: round-robin one op from each resident CTA
        while any(window):
            for ops in window:
                if ops:
                    sect = ops.pop(0)
                    missed = cache.access_sectors(sect)
                    fills += missed.size * _SECTOR
                    accesses += sect.size
                    if missed.size:
                        l2_fills += l2.access_sectors(missed).size * _SECTOR
        window.clear()

    with obs_tracing.span("trace.replay_reference", coresident=coresident,
                          sample_sms=sample_sms):
        for cta_id, ops in cta_stream:
            total += 1
            sm = cta_id % spec.num_sms
            if sm >= sample_sms:
                continue
            sampled += 1
            windows[sm].append(list(ops))
            if len(windows[sm]) >= coresident:
                drain(sm)
        for sm in range(sample_sms):
            drain(sm)
    if obs_metrics.enabled():
        for cache in caches.values():
            hw_cache.record_metrics("l1", cache.stats)
        hw_cache.record_metrics("l2", l2.stats)
    return TraceResult(
        sampled_ctas=sampled,
        total_ctas=total,
        sampled_fill_bytes=fills,
        sector_accesses=accesses,
        sampled_l2_fill_bytes=l2_fills,
    )


# --------------------------------------------------------------------- #
# memoised experiment-facing entry points (the ``trace`` memo region)
# --------------------------------------------------------------------- #
@memo.memoised("trace", copy_result=False)
def trace_octet_spmm(
    a: ColumnVectorSparseMatrix,
    n: int,
    tile_n: int = 64,
    elem_bytes: int = 2,
    sample_sms: int = 2,
) -> TraceResult:
    """Replay the octet SpMM stream (results treated as immutable)."""
    return replay_l1(
        octet_spmm_cta_sectors(a, n, tile_n=tile_n, elem_bytes=elem_bytes),
        sample_sms=sample_sms,
    )


@memo.memoised("trace", copy_result=False)
def trace_blocked_ell(
    ell: BlockedEllMatrix,
    n: int,
    sample_sms: int = 2,
) -> TraceResult:
    """Replay the Blocked-ELL stream (shared-staging L1 carveout)."""
    return replay_l1(
        blocked_ell_cta_sectors(ell, n),
        coresident=4,
        l1_data_bytes=32 * 1024,
        sample_sms=sample_sms,
    )


@memo.memoised("trace", copy_result=False)
def trace_octet_sddmm(
    mask: ColumnVectorSparseMatrix,
    k: int,
    sample_sms: int = 2,
) -> TraceResult:
    """Replay the octet SDDMM stream."""
    return replay_l1(octet_sddmm_cta_sectors(mask, k), sample_sms=sample_sms)


@memo.memoised("trace", copy_result=False)
def trace_wmma_sddmm(
    mask: ColumnVectorSparseMatrix,
    k: int,
    sample_sms: int = 2,
) -> TraceResult:
    """Replay the wmma SDDMM stream (the profiler's hit-rate source)."""
    return replay_l1(wmma_sddmm_cta_sectors(mask, k), sample_sms=sample_sms)


@memo.memoised("trace", copy_result=False)
def trace_gemm(
    m: int,
    k: int,
    n: int,
    elem_bytes: int = 2,
    sample_sms: int = 2,
) -> TraceResult:
    """Replay the dense GEMM stream.

    Tile sizes follow the shared-memory budget: the half-precision
    tile is 128x128 (32 KiB of operand halves); single precision fits
    half the elements in the same staging, so the row tile drops to 64
    — the tile-shrink half of Figure 5's superlinear miss reduction.
    """
    tile_m = 128 if elem_bytes <= 2 else 64
    return replay_l1(
        gemm_cta_sectors(m, k, n, tile_m=tile_m, tile_n=128, elem_bytes=elem_bytes),
        sample_sms=sample_sms,
    )
