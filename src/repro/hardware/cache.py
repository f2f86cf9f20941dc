"""Set-associative sector-cache simulators for the L1/L2 hierarchy.

Volta caches allocate 128-byte lines but fill and transfer 32-byte
*sectors* (guide V of the paper: "exploit the 128B transaction between
L1 and L2 caches").  The experiments in Figures 5 and 18 report
*missed sectors* and *bytes moved L2 -> L1*, so the simulator tracks
both line residency and per-sector validity.

Two engines implement the same contract:

* :class:`SectorCache` — the pinned scalar reference: one Python-loop
  iteration per sector access.  Slow, obviously correct; the parity
  tests and the trace benchmark baseline run against it.
* :class:`VectorSectorCache` — the batch engine the experiments use.
  Each ``access_sectors`` batch is partitioned by cache set (sets are
  independent), consecutive same-line accesses within a set are
  collapsed into *runs*, and the per-set run sequences are resolved in
  lock-step *rounds* of NumPy array ops (at most one run per set per
  round), so the Python iteration count is the deepest per-set run
  sequence of the batch rather than the batch length.  Bit-identical
  to the scalar reference — same :class:`CacheStats`, same
  missed-sector stream, stores included — enforced by
  ``tests/test_cache_vector.py``.

Stores are write-allocate (fetch-on-write at sector granularity) and
write-back: a store miss fetches the sector exactly like a load miss
(it appears in the missed stream and in ``bytes_filled``) and marks it
dirty; evicting a line with dirty sectors counts them in
``writeback_sectors``.  Writeback traffic is *accounted*, not replayed
into the next level — the kernels in the paper stream their outputs,
so store behaviour barely affects the reported load-side metrics.

:func:`repro.perfmodel.trace.replay_l1` puts these caches together: one
L1 per sampled SM in front of a shared L2, with ``engine`` selecting
the cache class ("vector" by default, "scalar" for the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics

__all__ = ["CacheStats", "SectorCache", "VectorSectorCache", "record_metrics"]


def record_metrics(level: str, stats: "CacheStats") -> None:
    """Fold one cache's counters into the observability registry.

    ``level`` is the metric namespace ("l1"/"l2"); callers invoke this
    once per finished simulation (trace replay) — never
    per access — so the disabled path costs one boolean check.  The
    registry derives ``cache.<level>.hit_rate`` from these at snapshot
    time (``repro.obs.metrics.cache_table``).
    """
    if not _metrics.enabled():
        return
    _metrics.counter_add(f"cache.{level}.sector_accesses", stats.sector_accesses)
    _metrics.counter_add(f"cache.{level}.sector_hits", stats.sector_hits)
    _metrics.counter_add(f"cache.{level}.line_fills", stats.line_fills)
    _metrics.counter_add(f"cache.{level}.writeback_sectors", stats.writeback_sectors)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache level (sector granularity)."""

    sector_accesses: int = 0
    sector_hits: int = 0
    line_fills: int = 0
    store_accesses: int = 0
    writeback_sectors: int = 0

    @property
    def sector_misses(self) -> int:
        return self.sector_accesses - self.sector_hits

    @property
    def hit_rate(self) -> float:
        return self.sector_hits / self.sector_accesses if self.sector_accesses else 0.0

    @property
    def bytes_filled(self) -> int:
        """Bytes moved in from the next level (32 B per missed sector)."""
        return self.sector_misses * 32

    @property
    def bytes_written_back(self) -> int:
        """Bytes moved out to the next level by dirty evictions."""
        return self.writeback_sectors * 32

    def merge(self, other: "CacheStats") -> None:
        self.sector_accesses += other.sector_accesses
        self.sector_hits += other.sector_hits
        self.line_fills += other.line_fills
        self.store_accesses += other.store_accesses
        self.writeback_sectors += other.writeback_sectors


class _SectorCacheBase:
    """Shared geometry/state for the scalar and vectorised engines.

    Parameters
    ----------
    capacity_bytes:
        Total data capacity.
    line_bytes / sector_bytes:
        Line (tag) and sector (fill) granularity; Volta uses 128/32.
    ways:
        Associativity.  Capacity/line/ways determine the set count.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        ways: int = 4,
    ) -> None:
        if capacity_bytes % (line_bytes * ways) != 0:
            raise ValueError("capacity must be a multiple of line_bytes * ways")
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (line_bytes * ways)
        # tags[set, way] = line id (or -1), valid[set, way, sector] = bool
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._valid = np.zeros((self.num_sets, ways, self.sectors_per_line), dtype=bool)
        self._dirty = np.zeros_like(self._valid)
        self._lru = np.zeros((self.num_sets, ways), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def reset(self) -> None:
        self._tags.fill(-1)
        self._valid.fill(False)
        self._dirty.fill(False)
        self._lru.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    def access_sectors(self, sector_ids: np.ndarray, is_store: bool = False) -> np.ndarray:
        raise NotImplementedError


class SectorCache(_SectorCacheBase):
    """LRU set-associative sectored cache — the scalar reference engine.

    One Python-loop iteration per sector access; every architectural
    decision (first matching way on a hit, ``argmin`` LRU victim on a
    miss, sector-granular fills, dirty-eviction writebacks) is spelled
    out sequentially.  :class:`VectorSectorCache` must reproduce this
    engine bit for bit.
    """

    def access_sectors(self, sector_ids: np.ndarray, is_store: bool = False) -> np.ndarray:
        """Access a batch of sector ids *in order*; return the missed ones.

        ``is_store`` marks the whole batch as stores: allocation and
        fills behave exactly like loads (write-allocate, fetch on
        write), the touched sectors are additionally marked dirty, and
        ``stats.store_accesses`` counts the batch.
        """
        sector_ids = np.asarray(sector_ids, dtype=np.int64).ravel()
        missed: list[int] = []
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


class VectorSectorCache(_SectorCacheBase):
    """The vectorised batch engine — bit-identical to :class:`SectorCache`.

    ``access_sectors`` resolves a whole batch with NumPy array ops:

    1. stable-sort the accesses by set (in-set order preserved) and
       collapse consecutive same-line accesses into runs — a line
       cannot be evicted between two back-to-back touches, so only a
       run's first access can miss the line;
    2. rank the runs within their set; round ``r`` applies every set's
       rank-``r`` run at once (distinct sets never conflict), doing the
       tag match, first-way hit selection, LRU-victim ``argmin``,
       sector fill, and dirty/writeback accounting as array ops;
    3. recover the per-access sector hits from the per-run line
       outcome plus first-touch flags, and scatter back to the original
       access order — so the returned missed-sector stream is ordered
       exactly as the scalar engine's.

    The Python-level iteration count is the deepest per-set run
    sequence in the batch (worst case, a single-set thrash, degrades to
    the scalar engine's; typical kernel streams spread over hundreds of
    sets and collapse multi-sector segments into single runs).
    """

    def access_sectors(self, sector_ids: np.ndarray, is_store: bool = False) -> np.ndarray:
        ids = np.asarray(sector_ids, dtype=np.int64).ravel()
        n = ids.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        spl = self.sectors_per_line
        lines = ids // spl
        subs = ids % spl
        sets = lines % self.num_sets
        clock0 = self._clock

        # -- group by set, preserving in-set access order ----------------
        order = np.argsort(sets, kind="stable")
        s_sorted = sets[order]
        l_sorted = lines[order]
        subs_sorted = subs[order]

        # -- collapse consecutive same-line accesses into runs -----------
        new_set = np.empty(n, dtype=bool)
        new_set[0] = True
        np.not_equal(s_sorted[1:], s_sorted[:-1], out=new_set[1:])
        new_run = new_set.copy()
        new_run[1:] |= l_sorted[1:] != l_sorted[:-1]
        run_id = np.cumsum(new_run) - 1
        nruns = int(run_id[-1]) + 1
        run_start = np.flatnonzero(new_run)
        run_end = np.empty(nruns, dtype=np.int64)
        run_end[:-1] = run_start[1:] - 1
        run_end[-1] = n - 1
        run_set = s_sorted[run_start]
        run_line = l_sorted[run_start]
        # a way's LRU stamp is the clock of the *last* access to its
        # line; within a run the sorted order is the original order, so
        # the run's last element carries the stamp
        run_t = clock0 + 1 + order[run_end]

        # sectors the run touches, as a per-run boolean mask
        run_mask = np.zeros((nruns, spl), dtype=bool)
        run_mask[run_id, subs_sorted] = True

        # first touch of each (run, sector) pair — only these can miss
        key = run_id * spl + subs_sorted
        korder = np.argsort(key, kind="stable")
        ks = key[korder]
        kfirst = np.empty(n, dtype=bool)
        kfirst[0] = True
        np.not_equal(ks[1:], ks[:-1], out=kfirst[1:])
        first_touch = np.empty(n, dtype=bool)
        first_touch[korder] = kfirst

        # rank of each run within its set -> lock-step rounds
        run_idx = np.arange(nruns)
        first_run_of_set = np.maximum.accumulate(np.where(new_set[run_start], run_idx, 0))
        run_rank = run_idx - first_run_of_set
        rank_order = np.argsort(run_rank, kind="stable")
        counts = np.bincount(run_rank)
        offsets = np.concatenate(([0], np.cumsum(counts)))

        line_hit_run = np.zeros(nruns, dtype=bool)
        valid_before = np.zeros((nruns, spl), dtype=bool)
        tags, valid, dirty, lru = self._tags, self._valid, self._dirty, self._lru
        fills = 0
        writebacks = 0
        for r in range(counts.size):
            ridx = rank_order[offsets[r]: offsets[r + 1]]
            s = run_set[ridx]
            l = run_line[ridx]
            masks = run_mask[ridx]
            hit = (tags[s] == l[:, None]).any(axis=1)
            hi = np.flatnonzero(hit)
            if hi.size:
                sh = s[hi]
                wh = (tags[sh] == l[hi, None]).argmax(axis=1)
                line_hit_run[ridx[hi]] = True
                valid_before[ridx[hi]] = valid[sh, wh]
                valid[sh, wh] |= masks[hi]
                if is_store:
                    dirty[sh, wh] |= masks[hi]
                lru[sh, wh] = run_t[ridx[hi]]
            mi = np.flatnonzero(~hit)
            if mi.size:
                sm = s[mi]
                wv = lru[sm].argmin(axis=1)
                writebacks += int(dirty[sm, wv].sum())
                tags[sm, wv] = l[mi]
                valid[sm, wv] = masks[mi]
                dirty[sm, wv] = masks[mi] if is_store else False
                lru[sm, wv] = run_t[ridx[mi]]
                fills += mi.size

        # -- per-access outcome, back in original order -------------------
        sector_hit_sorted = np.where(
            first_touch,
            line_hit_run[run_id] & valid_before[run_id, subs_sorted],
            True,
        )
        sector_hit = np.empty(n, dtype=bool)
        sector_hit[order] = sector_hit_sorted

        self._clock = clock0 + n
        self.stats.sector_accesses += n
        self.stats.sector_hits += int(sector_hit.sum())
        self.stats.line_fills += fills
        self.stats.writeback_sectors += writebacks
        if is_store:
            self.stats.store_accesses += n
        return ids[~sector_hit]


#: engine name -> cache class, for the trace replay
ENGINES = {"scalar": SectorCache, "vector": VectorSectorCache}

