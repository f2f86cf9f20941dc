"""Scalar-vs-vectorised sector-cache parity.

:class:`SectorCache` (``tests/oracles``) is the pinned behavioural reference;
:class:`VectorSectorCache` must reproduce it *bit-for-bit* — the same
missed-sector stream (in original access order), the same
:class:`CacheStats`, and the same internal tag/valid/dirty/LRU state —
on every batch, including the adversarial shapes the vectorised
set-partitioned algorithm could plausibly get wrong: conflict-heavy
set thrashing, repeated sectors inside one batch, LRU state carried
across batches, and empty/singleton batches.
"""

import numpy as np
import pytest

from repro.hardware import VectorSectorCache
from repro.hardware.config import VOLTA_V100
from repro.perfmodel.trace import replay_l1

from .oracles import SectorCache, replay_l1_reference

GEOM = dict(line_bytes=128, sector_bytes=32, ways=2)


def pair(capacity=2048, **kw):
    geom = {**GEOM, **kw}
    return SectorCache(capacity, **geom), VectorSectorCache(capacity, **geom)


def assert_state_equal(ref: SectorCache, vec: VectorSectorCache):
    np.testing.assert_array_equal(ref._tags, vec._tags)
    np.testing.assert_array_equal(ref._valid, vec._valid)
    np.testing.assert_array_equal(ref._dirty, vec._dirty)
    np.testing.assert_array_equal(ref._lru, vec._lru)
    assert ref._clock == vec._clock
    assert ref.stats == vec.stats


def run_batches(ref, vec, batches):
    """Feed identical batches to both engines, asserting parity after each."""
    for ids, is_store in batches:
        ids = np.asarray(ids, dtype=np.int64)
        m_ref = ref.access_sectors(ids, is_store=is_store)
        m_vec = vec.access_sectors(ids, is_store=is_store)
        np.testing.assert_array_equal(m_ref, m_vec)
        assert_state_equal(ref, vec)


class TestBatchShapes:
    def test_empty_batch(self):
        ref, vec = pair()
        run_batches(ref, vec, [(np.array([], dtype=np.int64), False)])
        assert ref.stats.sector_accesses == 0

    def test_singleton_batches(self):
        ref, vec = pair()
        run_batches(ref, vec, [([7], False), ([7], False), ([11], True)])

    def test_repeated_sector_within_batch(self):
        # second and later touches of the same sector in one batch must
        # hit (the reference fills it on the first touch)
        ref, vec = pair()
        run_batches(ref, vec, [([5, 5, 5, 5], False)])
        assert ref.stats.sector_hits == 3

    def test_same_line_different_sectors_within_batch(self):
        ref, vec = pair()
        run_batches(ref, vec, [([0, 1, 2, 3, 0, 1], False)])
        assert ref.stats.line_fills == 1


class TestConflictThrashing:
    def test_single_set_eviction_storm(self):
        # every line maps to set 0 of a 4-set, 2-way cache: each batch
        # is a pure conflict-miss storm with LRU churn
        ref, vec = pair(capacity=1024)  # 4 sets
        nsets = ref.num_sets
        spl = ref.sectors_per_line
        lines = np.arange(8) * nsets  # all -> set 0
        batches = [(lines * spl, False), (lines[::-1] * spl, False),
                   ((lines * spl)[::2], True)]
        run_batches(ref, vec, batches)

    def test_interleaved_sets_and_ways(self):
        ref, vec = pair(capacity=1024)
        nsets = ref.num_sets
        spl = ref.sectors_per_line
        # round-robin over sets with more distinct lines than ways
        ids = np.array([(s + w * nsets) * spl for w in range(5) for s in range(nsets)])
        run_batches(ref, vec, [(ids, False), (ids, False)])


class TestCrossBatchState:
    def test_lru_carryover(self):
        # a touch in batch 1 must protect the line from eviction in
        # batch 3 — recency must survive batch boundaries identically
        ref, vec = pair(capacity=1024)
        nsets = ref.num_sets
        spl = ref.sectors_per_line
        a, b, c = 0, nsets * spl, 2 * nsets * spl
        run_batches(ref, vec, [([a, b], False), ([a], False), ([c], False),
                               ([a], False), ([b], False)])
        # a survived (refreshed), b was the LRU victim
        assert ref.stats.sector_hits == 2

    def test_long_mixed_session(self):
        ref, vec = pair(capacity=4096, ways=4)
        rng = np.random.default_rng(7)
        batches = []
        for i in range(12):
            n = int(rng.integers(0, 40))
            ids = rng.integers(0, 4 * ref.num_sets * ref.sectors_per_line, size=n)
            batches.append((np.sort(ids) if i % 3 else ids, bool(i % 4 == 2)))
        run_batches(ref, vec, batches)

    def test_reset_parity(self):
        ref, vec = pair()
        run_batches(ref, vec, [(np.arange(32), False)])
        ref.reset()
        vec.reset()
        assert_state_equal(ref, vec)
        run_batches(ref, vec, [(np.arange(32), True)])


class TestFuzzParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        ref, vec = pair(capacity=int(rng.choice([1024, 2048, 8192])),
                        ways=int(rng.choice([1, 2, 4])))
        space = 6 * ref.num_sets * ref.ways * ref.sectors_per_line
        for _ in range(10):
            n = int(rng.integers(0, 120))
            style = rng.integers(0, 3)
            if style == 0:  # uniform random
                ids = rng.integers(0, space, size=n)
            elif style == 1:  # hot set: heavy conflicts
                lines = rng.integers(0, 8, size=n) * ref.num_sets
                ids = lines * ref.sectors_per_line + rng.integers(
                    0, ref.sectors_per_line, size=n)
            else:  # streaming with duplicates
                ids = np.repeat(np.arange(n // 2 + 1), 2)[:n]
            run_batches(ref, vec, [(ids, bool(rng.integers(0, 2)))])


class TestHierarchyEngineParity:
    """``replay_l1``'s L1 -> L2 walk on the vector engine gives the
    result of the scalar-engine reference replay."""

    def test_summary_identical_across_engines(self):
        # one CTA per window on SM 0, so cache state carries across batches
        streams = [np.arange(512), np.arange(256, 768), np.arange(512)]
        ctas = [(i * VOLTA_V100.num_sms, [ids]) for i, ids in enumerate(streams)]
        kw = dict(l1_data_bytes=4096, coresident=1)
        ref = replay_l1_reference(iter(ctas), **kw)
        assert ref == replay_l1(iter(ctas), **kw)
        assert ref.sampled_ctas == 3 and ref.sampled_l2_fill_bytes > 0
