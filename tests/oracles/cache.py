"""The scalar sector cache and the op-at-a-time trace replay.

:class:`repro.hardware.cache.VectorSectorCache` resolves a whole access
batch with array ops, and :func:`repro.perfmodel.trace.replay_l1` feeds
it one precomputed interleave per co-resident window.  The twins here
spell both out one step at a time: :class:`SectorCache` walks a batch
one sector per Python iteration, and :func:`replay_l1_reference` drains
each window with the original ``pop(0)`` round robin.  They must return
the same missed-sector streams, cache state and
:class:`~repro.perfmodel.trace.TraceResult`\\ s as the batch engines.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.hardware import cache as hw_cache
from repro.hardware.cache import VectorSectorCache
from repro.hardware.config import GPUSpec, default_spec
from repro.obs import metrics as obs_metrics
from repro.perfmodel.trace import TraceResult

__all__ = ["SectorCache", "replay_l1_reference"]

_SECTOR = 32


class SectorCache(VectorSectorCache):
    """LRU set-associative sectored cache, one sector per iteration.

    Every architectural decision (first matching way on a hit,
    ``argmin`` LRU victim on a miss, sector-granular fills,
    dirty-eviction writebacks) is spelled out sequentially over the
    same ``_tags``/``_valid``/``_dirty``/``_lru`` arrays the batch
    engine keeps.
    """

    def access_sectors(self, sector_ids: np.ndarray, is_store: bool = False) -> np.ndarray:
        """The batch engine's contract, walked one sector at a time."""
        sector_ids = np.asarray(sector_ids, dtype=np.int64).ravel()
        missed: List[int] = []
        tags = self._tags
        valid = self._valid
        dirty = self._dirty
        lru = self._lru
        spl = self.sectors_per_line
        nsets = self.num_sets
        if is_store:
            self.stats.store_accesses += int(sector_ids.size)
        for sid in sector_ids:
            line = sid // spl
            sub = sid % spl
            s = line % nsets
            self._clock += 1
            self.stats.sector_accesses += 1
            row = tags[s]
            hit_ways = np.nonzero(row == line)[0]
            if hit_ways.size:
                w = int(hit_ways[0])
                if valid[s, w, sub]:
                    self.stats.sector_hits += 1
                else:
                    valid[s, w, sub] = True
                    missed.append(sid)
                if is_store:
                    dirty[s, w, sub] = True
                lru[s, w] = self._clock
            else:
                w = int(np.argmin(lru[s]))
                self.stats.writeback_sectors += int(dirty[s, w].sum())
                tags[s, w] = line
                valid[s, w] = False
                valid[s, w, sub] = True
                dirty[s, w] = False
                if is_store:
                    dirty[s, w, sub] = True
                lru[s, w] = self._clock
                self.stats.line_fills += 1
                missed.append(sid)
        return np.asarray(missed, dtype=np.int64)


def replay_l1_reference(
    cta_stream: Iterable[Tuple[int, List[np.ndarray]]],
    spec: Optional[GPUSpec] = None,
    l1_data_bytes: Optional[int] = None,
    coresident: int = 32,
    sample_sms: int = 1,
) -> TraceResult:
    """Twin of ``replay_l1``: the scalar cache, one op at a time.

    Drains each co-resident window with the original round robin
    (``pop(0)`` one op from each resident CTA until all are empty), so
    the batched replay has an executable specification; the two must
    return equal :class:`TraceResult`\\ s on any stream.
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
