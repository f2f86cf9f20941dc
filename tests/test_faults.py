"""Tests for the fault-injection layer and memo integrity checking.

Covers the injector mechanics (single-shot, seeded determinism, copy
semantics, arming discipline), the SDC campaigns (replayability,
smoke-floor guarantees), and the checksummed memo store (tampered
entries are detected, recomputed, and never served).
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, active, run_campaign, site
from repro.faults.campaign import _spmm_problem
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.perfmodel import memo
from repro.perfmodel.memo import stats_signature


class TestInjectorMechanics:
    def test_site_is_passthrough_when_unarmed(self):
        arr = np.ones(4, dtype=np.float16)
        assert not active()
        assert site("spmm_octet.acc", arr) is arr  # same object, zero cost

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultInjector("spmm_octet.acc", "rowhammer", seed=1)

    def test_nested_arming_is_a_usage_bug(self):
        a = FaultInjector("x", "bitflip16", seed=1)
        b = FaultInjector("x", "bitflip16", seed=2)
        with a.armed():
            assert active()
            with pytest.raises(RuntimeError, match="already armed"):
                with b.armed():
                    pass
        assert not active()  # cleared even after the nested failure

    def test_bitflip_is_single_shot_copy_and_deterministic(self):
        arr = np.arange(16, dtype=np.float16)
        ref = arr.copy()
        flips = []
        for _ in range(2):
            inj = FaultInjector("spmm_octet.acc", "bitflip16", seed=99)
            with inj.armed():
                first = site("spmm_octet.acc", arr)
                second = site("spmm_octet.acc", arr)
            assert inj.fired
            assert np.array_equal(arr, ref)          # input never mutated
            assert not np.array_equal(first, ref)    # corruption applied...
            assert second is arr                     # ...exactly once
            flips.append(first)
        assert np.array_equal(flips[0], flips[1])    # same seed, same flip

    def test_bitflip_never_masks_on_zero_payload(self):
        # sign flips of +/-0.0 are undetectable by any checker; the
        # injector must redraw rather than burn its shot on one
        zeros = np.zeros(8, dtype=np.float16)
        for seed in range(32):
            inj = FaultInjector("s", "bitflip16", seed=seed)
            with inj.armed():
                out = site("s", zeros)
            assert inj.fired
            assert not np.array_equal(out, zeros), f"masked fault at seed {seed}"

    def test_skip_spreads_injections_across_visits(self):
        arrs = [np.full(4, i + 1.0, dtype=np.float16) for i in range(3)]
        inj = FaultInjector("s", "bitflip16", seed=5, skip=2)
        with inj.armed():
            outs = [site("s", a) for a in arrs]
        assert outs[0] is arrs[0] and outs[1] is arrs[1]
        assert not np.array_equal(outs[2], arrs[2])

    def test_wrong_site_never_fires(self):
        inj = FaultInjector("sddmm_octet.acc", "bitflip16", seed=1)
        arr = np.ones(4, dtype=np.float16)
        with inj.armed():
            out = site("spmm_octet.acc", arr)
        assert out is arr and not inj.fired and inj.visits == 0

    def test_stats_negate_always_violates_physicality(self):
        a, _b, n = _spmm_problem(seed=3)
        kern = OctetSpmmKernel()
        stats = kern.stats_for(a, n)
        inj = FaultInjector("s", "stats-negate", seed=7)
        with inj.armed():
            dirty = site("s", stats)
        assert inj.fired
        assert stats_signature(dirty) != stats_signature(stats)
        assert stats.flops >= 0  # original untouched (deepcopy semantics)


class TestCampaigns:
    def test_unknown_campaign_rejected_with_choices(self):
        with pytest.raises(ValueError, match="default"):
            run_campaign("nope")

    def test_smoke_campaign_detects_everything(self):
        result = run_campaign("smoke", seed=1234)
        assert result.passed
        for checker, (det, tot) in result.coverage().items():
            assert det == tot, f"{checker}: {det}/{tot} on guaranteed faults"

    def test_campaign_is_replayable_record_for_record(self):
        a = run_campaign("smoke", seed=77)
        b = run_campaign("smoke", seed=77)
        assert [(r.target, r.seed, r.detected, r.detail) for r in a.records] == [
            (r.target, r.seed, r.detected, r.detail) for r in b.records
        ]

    def test_campaign_leaves_no_injector_armed(self):
        run_campaign("smoke", seed=5)
        assert not active()

    def test_campaign_restores_the_callers_memo_overrides(self, tmp_path):
        from repro.perfmodel import sharedmemo
        memo.set_enabled(False)
        memo.set_checksum(False)
        sharedmemo.set_enabled(False)
        sharedmemo.set_dir(tmp_path)
        try:
            assert run_campaign("smoke", seed=5).passed
            assert not memo.enabled() and not memo.checksum_enabled()
            assert not sharedmemo.enabled()
            assert sharedmemo.store_dir() == tmp_path
        finally:
            memo.set_enabled(None)
            memo.set_checksum(None)
            sharedmemo.set_enabled(None)
            sharedmemo.set_dir(None)

    def test_report_renders_coverage_table(self):
        result = run_campaign("smoke", seed=1234)
        text = result.to_text()
        assert "Coverage" in text and "Floor" in text
        assert "ok" in text


class TestMemoIntegrity:
    @pytest.fixture(autouse=True)
    def _memo_on(self):
        memo.set_enabled(True)
        memo.set_checksum(True)
        memo.clear()
        yield
        memo.set_enabled(None)
        memo.set_checksum(None)
        memo.clear()

    def _stats_once(self):
        a, _b, n = _spmm_problem(seed=11)
        return stats_signature(OctetSpmmKernel().stats_for(a, n))

    def test_tampered_entry_detected_and_recomputed_never_served(self):
        ref = self._stats_once()
        base = memo.integrity_failures()
        assert memo.tamper_entry("stats", index=0, flip_byte=17)
        served = self._stats_once()
        assert memo.integrity_failures() == base + 1  # corruption was caught
        assert served == ref                          # caller got clean stats
        # the recomputed entry was re-stored healthy: next hit is clean too
        assert self._stats_once() == ref
        assert memo.integrity_failures() == base + 1

    def test_clean_entries_verify_without_failures(self):
        ref = self._stats_once()
        for _ in range(3):
            assert self._stats_once() == ref
        assert memo.integrity_failures() == 0

    def test_checksum_can_be_disabled(self):
        memo.set_checksum(False)
        assert not memo.checksum_enabled()
        ref = self._stats_once()
        # raw storage: nothing to tamper with at the byte level
        assert not memo.tamper_entry("stats", index=0)
        assert self._stats_once() == ref
