"""Tests for the L1/L2 sector-cache simulator."""

import numpy as np
import pytest

from repro.hardware import VectorSectorCache
from repro.perfmodel.trace import replay_l1

from .oracles import SectorCache

ENGINES = [SectorCache, VectorSectorCache]


def small_cache(capacity=4096, ways=2, cls=SectorCache):
    return cls(capacity, line_bytes=128, sector_bytes=32, ways=ways)


class TestSectorCache:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        missed = c.access_sectors(np.array([0]))
        assert missed.tolist() == [0]
        missed = c.access_sectors(np.array([0]))
        assert missed.size == 0
        assert c.stats.sector_hits == 1

    def test_sectored_fill_not_whole_line(self):
        # touching sector 0 must NOT make sector 1 of the same line hit
        c = small_cache()
        c.access_sectors(np.array([0]))
        missed = c.access_sectors(np.array([1]))
        assert missed.tolist() == [1]
        # but it fills into the existing line (no second line fill)
        assert c.stats.line_fills == 1

    def test_streaming_fills_every_sector(self):
        c = small_cache()
        n = 64
        missed = c.access_sectors(np.arange(n))
        assert missed.size == n
        assert c.stats.bytes_filled == n * 32

    def test_lru_eviction(self):
        # 2-way cache: three lines mapping to the same set evict LRU
        c = small_cache(capacity=1024, ways=2)  # 4 sets
        nsets = c.num_sets
        s0 = 0
        lines = [s0, s0 + nsets, s0 + 2 * nsets]  # same set index
        for ln in lines:
            c.access_sectors(np.array([ln * 4]))
        # line 0 was evicted by line 2
        missed = c.access_sectors(np.array([lines[0] * 4]))
        assert missed.size == 1

    def test_lru_touch_refreshes(self):
        c = small_cache(capacity=1024, ways=2)
        nsets = c.num_sets
        a, b, d = 0, nsets, 2 * nsets
        c.access_sectors(np.array([a * 4]))
        c.access_sectors(np.array([b * 4]))
        c.access_sectors(np.array([a * 4]))  # refresh a
        c.access_sectors(np.array([d * 4]))  # evicts b, not a
        assert c.access_sectors(np.array([a * 4])).size == 0
        assert c.access_sectors(np.array([b * 4])).size == 1

    def test_reset(self):
        c = small_cache()
        c.access_sectors(np.arange(8))
        c.reset()
        assert c.stats.sector_accesses == 0
        assert c.access_sectors(np.array([0])).size == 1

    def test_capacity_must_divide(self):
        with pytest.raises(ValueError):
            SectorCache(1000, 128, 32, 4)

    def test_hit_rate_of_reused_working_set(self):
        c = small_cache(capacity=8192, ways=4)
        ws = np.arange(64)  # 2 KiB, fits
        c.access_sectors(ws)
        for _ in range(3):
            c.access_sectors(ws)
        assert c.stats.hit_rate == pytest.approx(3 / 4)


@pytest.mark.parametrize("cls", ENGINES, ids=["scalar", "vector"])
class TestStoreBehaviour:
    """``is_store`` semantics: write-allocate + write-back accounting.

    Stores allocate and fill exactly like loads (fetch-on-write at
    sector granularity, so the miss stream and all pre-existing
    metrics are store-blind); additionally they mark the touched
    sectors dirty, and evicting a dirty sector counts toward
    ``writeback_sectors``.
    """

    def test_store_counted(self, cls):
        c = small_cache(cls=cls)
        c.access_sectors(np.arange(4), is_store=True)
        c.access_sectors(np.arange(4, 6))
        assert c.stats.store_accesses == 4
        assert c.stats.sector_accesses == 6

    def test_store_miss_write_allocates(self, cls):
        # fetch-on-write: a store miss fills the sector like a load
        c = small_cache(cls=cls)
        missed = c.access_sectors(np.array([0]), is_store=True)
        assert missed.tolist() == [0]
        assert c.stats.line_fills == 1
        # the allocated sector then hits, for loads and stores alike
        assert c.access_sectors(np.array([0])).size == 0
        assert c.access_sectors(np.array([0]), is_store=True).size == 0

    def test_dirty_eviction_counts_writeback(self, cls):
        c = small_cache(capacity=1024, ways=2, cls=cls)  # 4 sets
        nsets, spl = c.num_sets, c.sectors_per_line
        # dirty two sectors of the line at set 0, way 0
        c.access_sectors(np.array([0, 1]), is_store=True)
        # two more lines in the same set evict it
        c.access_sectors(np.array([nsets * spl, 2 * nsets * spl]))
        assert c.stats.writeback_sectors == 2
        assert c.stats.bytes_written_back == 64

    def test_clean_eviction_no_writeback(self, cls):
        c = small_cache(capacity=1024, ways=2, cls=cls)
        nsets, spl = c.num_sets, c.sectors_per_line
        c.access_sectors(np.array([0, 1]))  # loads never dirty
        c.access_sectors(np.array([nsets * spl, 2 * nsets * spl]))
        assert c.stats.writeback_sectors == 0

    def test_store_hit_dirties_existing_line(self, cls):
        c = small_cache(capacity=1024, ways=2, cls=cls)
        nsets, spl = c.num_sets, c.sectors_per_line
        c.access_sectors(np.array([0]))               # clean fill
        c.access_sectors(np.array([0]), is_store=True)  # hit -> dirty
        c.access_sectors(np.array([nsets * spl, 2 * nsets * spl]))
        assert c.stats.writeback_sectors == 1

    def test_refill_clears_dirty(self, cls):
        # after a dirty line is written back and the way is refilled,
        # evicting the (clean) newcomer must not write back again
        c = small_cache(capacity=1024, ways=1, cls=cls)
        nsets, spl = c.num_sets, c.sectors_per_line
        c.access_sectors(np.array([0]), is_store=True)
        c.access_sectors(np.array([nsets * spl]))      # evicts dirty
        c.access_sectors(np.array([2 * nsets * spl]))  # evicts clean
        assert c.stats.writeback_sectors == 1

    def test_stores_do_not_change_miss_metrics(self, cls):
        # the pre-existing traffic metrics are store-blind
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 512, size=200)
        as_loads = small_cache(cls=cls)
        as_stores = small_cache(cls=cls)
        m_l = as_loads.access_sectors(ids)
        m_s = as_stores.access_sectors(ids, is_store=True)
        np.testing.assert_array_equal(m_l, m_s)
        assert as_loads.stats.sector_hits == as_stores.stats.sector_hits
        assert as_loads.stats.line_fills == as_stores.stats.line_fills


class TestCacheHierarchy:
    """The L1 -> L2 walk, as ``replay_l1`` drives it: each window's L1
    misses go on to one shared L2, whose misses come from DRAM."""

    def test_l1_miss_goes_to_l2(self):
        tr = replay_l1(iter([(0, [np.arange(16)])]))
        assert tr.sector_accesses == 16
        assert tr.sampled_fill_bytes == 16 * 32      # 16 L1 misses
        assert tr.sampled_l2_fill_bytes == 16 * 32   # all 16 go to DRAM

    def test_l2_absorbs_repeat_after_l1_eviction(self):
        big = np.arange(4096)  # 128 KiB stream >> 4 KiB L1, << 6 MiB L2
        tr = replay_l1(iter([(0, [big, big])]), l1_data_bytes=4096)
        # the second pass misses L1 (evicted) but hits L2
        assert tr.sampled_fill_bytes == 2 * big.size * 32
        assert tr.sampled_l2_fill_bytes == big.size * 32

    def test_bytes_accounting(self):
        tr = replay_l1(iter([(0, [np.arange(10)])]))
        assert tr.bytes_l2_to_l1 == 320
        assert tr.bytes_dram_to_l2 == 320

    def test_access_returns_l1_misses(self):
        # one CTA touches 16 sectors twice: the repeat hits L1, so only
        # the first pass fills L1 and L2
        tr = replay_l1(iter([(0, [np.arange(16), np.arange(16)])]))
        assert tr.sector_accesses == 32
        assert tr.l1_missed_sectors == 16
        assert tr.sampled_l2_fill_bytes == 16 * 32
