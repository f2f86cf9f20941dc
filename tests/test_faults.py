"""Planted defects: every guaranteed-detection fault class fires its check.

Each test plants one defect into a real code path with ``monkeypatch``
and asserts that the check owning the corrupted artifact reports it:

* a flipped bit in the octet SpMM or SDDMM accumulator writeback (the
  plan executors' output) fails the ownership differential;
* a high bit flipped in one sector id of the octet SpMM's sector
  stream lands outside every operand, and memcheck flags it;
* a negated counter or a 64x FLOP claim on a finished ``KernelStats``
  fails statcheck;
* a flipped byte in a shared-tier memo entry on disk is detected and
  recomputed, never served; a caller's write into an in-process memo
  result never reaches the next hit (frozen values refuse it, copied
  values take it privately).

Each class runs on two seeds, which choose the problem and the
corrupted element.  The kernel and stats defects run with the memo
off, so a planted defect is never cached.
"""

import dataclasses

import numpy as np
import pytest

from repro import plans
from repro.datasets.dlmc import dlmc_suite
from repro.kernels import analyze_windows
from repro.kernels.cases import cvse_operand, mask_operand
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.perfmodel import memo, sharedmemo, trace
from repro.perfmodel.memo import stats_signature

from . import tamper
from .sanitizer import Checker, memcheck, racecheck, statcheck

SEEDS = (1234, 1235)


def _spmm_problem(seed: int, v: int = 4, m: int = 32, k: int = 64, n: int = 128):
    rng = np.random.default_rng(seed)
    keep = rng.random((m // v, k)) < 0.4
    keep[:, 0] = True  # every vector row live: no all-zero output rows
    a = cvse_operand(keep, v, rng)
    return a, rng.uniform(-1, 1, (k, n)).astype(np.float16), n


def _sddmm_problem(seed: int, v: int = 4, m: int = 32, k: int = 64, n: int = 96):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    grp = rng.random((m // v, n)) < 0.3
    grp[:, 0] = True
    return a, b, mask_operand(grp, v)


def _flip_bit(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An fp16 copy of ``values`` with one bit of one element flipped.

    A sign flip of a zero is redrawn: no check can or should see it."""
    out = np.array(values, dtype=np.float16)
    bits = out.view(np.uint16).reshape(-1)
    while True:
        idx, bit = int(rng.integers(bits.size)), int(rng.integers(16))
        if bit != 15 or bits[idx] not in (0, 0x8000):
            break
    bits[idx] ^= np.uint16(1 << bit)
    return out


@pytest.fixture
def memo_off():
    previous = memo.set_enabled(False)
    yield
    memo.set_enabled(previous)


@pytest.mark.usefixtures("memo_off")
class TestPlantedKernelDefects:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spmm_accumulator_bitflip_fires_ownership(self, monkeypatch, seed):
        a, b, _ = _spmm_problem(seed)
        rng = np.random.default_rng(seed)
        clean = plans.execute_spmm_octet

        def planted(plan, a, b16):
            out, tc = clean(plan, a, b16)
            return _flip_bit(out, rng), tc

        monkeypatch.setattr(plans, "execute_spmm_octet", planted)
        findings, _ = racecheck.check_spmm_octet_ownership(
            OctetSpmmKernel(simulate=True), a, b)
        assert {f.checker for f in findings} == {Checker.OWNERSHIP}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sddmm_accumulator_bitflip_fires_ownership(self, monkeypatch, seed):
        a, b, mask = _sddmm_problem(seed)
        rng = np.random.default_rng(seed)
        clean = plans.execute_sddmm_octet

        def planted(*args):
            out_vals, tc = clean(*args)
            return _flip_bit(out_vals, rng), tc

        monkeypatch.setattr(plans, "execute_sddmm_octet", planted)
        findings, _ = racecheck.check_sddmm_octet_ownership(
            OctetSddmmKernel(variant="reg", simulate=True), a, b, mask)
        assert {f.checker for f in findings} == {Checker.OWNERSHIP}

    @pytest.mark.parametrize("skip", (0, 1))
    def test_out_of_extent_sector_fires_memcheck(self, monkeypatch, skip):
        # the two runs corrupt different CTAs: the first non-empty one
        # at or after CTA ``skip``
        seed = SEEDS[skip]
        a, _, n = _spmm_problem(seed)
        rng = np.random.default_rng(seed)
        clean = trace.octet_spmm_cta_sectors

        def planted(*args):
            fired = False
            for cta, ops in clean(*args):
                if not fired and cta >= skip and ops:
                    ops = [op.copy() for op in ops]
                    op = ops[int(rng.integers(len(ops)))]
                    # a high bit: the sector lands megabytes outside any operand
                    op[int(rng.integers(op.size))] ^= 1 << (16 + int(rng.integers(8)))
                    fired = True
                yield cta, ops

        monkeypatch.setattr(trace, "octet_spmm_cta_sectors", planted)
        findings, _ = memcheck.check_stream(trace.octet_spmm_cta_sectors(a, n),
                                            memcheck.spmm_octet_address_map(a, n))
        assert findings
        assert {f.checker for f in findings} == {Checker.MEMCHECK}


#: ``KernelStats`` counters a planted negation may hit, as (sub-object
#: attribute or None, field)
_STATS_PATHS = (
    ("global_mem", "load_sectors"),
    ("global_mem", "bytes_l2_to_l1"),
    ("global_mem", "bytes_dram_to_l2"),
    ("shared_mem", "load_requests"),
    (None, "flops"),
    (None, "ilp"),
    (None, "work_imbalance"),
)


def _negate(stats, rng, path=None):
    sub, name = path or _STATS_PATHS[int(rng.integers(len(_STATS_PATHS)))]
    obj = getattr(stats, sub) if sub else stats
    setattr(obj, name, -abs(float(getattr(obj, name))) - 1.0)
    return stats


def _inflate_flops(stats, rng):
    assert stats.flops > 0
    stats.flops *= 64.0
    return stats


@pytest.mark.usefixtures("memo_off")
class TestPlantedStatsDefects:
    @pytest.mark.parametrize("plant", [_negate, _inflate_flops],
                             ids=["negated-counter", "flops-past-roofline"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupted_stats_fire_statcheck(self, monkeypatch, plant, seed):
        a, _, n = _spmm_problem(seed)
        rng = np.random.default_rng(seed)
        clean = OctetSpmmKernel.stats_for
        monkeypatch.setattr(OctetSpmmKernel, "stats_for",
                            lambda self, *args: plant(clean(self, *args), rng))
        kern = OctetSpmmKernel()
        findings, _ = statcheck.check_stats(kern.stats_for(a, n), spec=kern.spec)
        assert findings
        assert {f.checker for f in findings} == {Checker.STATCHECK}

    def test_every_negated_counter_fires_statcheck(self):
        a, _, n = _spmm_problem(SEEDS[0])
        kern = OctetSpmmKernel()
        for path in _STATS_PATHS:
            stats = _negate(kern.stats_for(a, n), None, path)
            assert statcheck.check_stats(stats, spec=kern.spec)[0], path


class TestPlantedMemoDefects:
    """A planted corruption of a memo result (a written counter, a
    flipped byte in the shared tier's file) never reaches the next
    lookup: the caller gets bit-identical stats."""

    @pytest.fixture(autouse=True)
    def _memo_on(self, tmp_path):
        memo_was = memo.set_enabled(True)
        shared_was = sharedmemo.set_enabled(False), sharedmemo.set_dir(tmp_path)
        memo.clear()
        sharedmemo.reset()
        yield
        memo.set_enabled(memo_was)
        memo.clear()
        sharedmemo.reset()
        sharedmemo.set_enabled(shared_was[0])
        sharedmemo.set_dir(shared_was[1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_written_memo_result_never_served(self, seed):
        a, _, n = _spmm_problem(seed)
        kern = OctetSpmmKernel()
        rng = np.random.default_rng(seed)
        miss = kern.stats_for(a, n)
        clean = stats_signature(miss)
        _negate(miss, rng)                # the object a miss handed out
        _negate(kern.stats_for(a, n), rng)  # the copy a hit handed out
        assert stats_signature(kern.stats_for(a, n)) == clean
        assert memo.counters()["stats"] == (2, 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupt_shared_entry_detected_never_served(self, seed):
        sharedmemo.set_enabled(True)
        a, _, n = _spmm_problem(seed)
        kern = OctetSpmmKernel()
        clean = stats_signature(kern.stats_for(a, n))
        assert tamper.shared_entry("stats", flip_byte=int(np.random.default_rng(seed).integers(200)))
        memo.clear()  # the next lookup must read the corrupted entry file
        before = sharedmemo.integrity_failures()
        assert stats_signature(kern.stats_for(a, n)) == clean
        assert sharedmemo.integrity_failures() == before + 1


class TestMemoImmutability:
    """Frozen memo values refuse writes, copied ones are fresh per hit,
    and freezing never reaches a caller's operands."""

    @pytest.fixture(autouse=True)
    def _memo_on(self):
        was = memo.set_enabled(True)
        memo.clear()
        yield
        memo.set_enabled(was)
        memo.clear()

    def test_frozen_hits_refuse_writes(self):
        a, _, n = _spmm_problem(seed=11)
        _, _, mask = _sddmm_problem(seed=11)
        kern = OctetSpmmKernel(simulate=True)
        suite = lambda: dlmc_suite(shapes=((64, 128),), sparsities=(0.9,))  # noqa: E731
        plan, tr, win, entry = (plans.spmm_octet_plan(kern, a), trace.trace_octet_spmm(a, n),
                                analyze_windows(mask, 32), suite()[0])
        before = (plan.layout.slots.copy(), tr.sampled_fill_bytes,
                  win.occupied_counts.copy(), entry.csr.values.copy())
        for arr in (plan.layout.slots, plan.levels[0][1], win.occupied_counts,
                    entry.csr.values, entry.csr.col_idx):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.sampled_fill_bytes = 0
        with pytest.raises(AttributeError):
            suite().append(entry)
        # the next hits are the same, unchanged objects
        assert plans.spmm_octet_plan(kern, a) is plan
        assert trace.trace_octet_spmm(a, n) is tr
        assert analyze_windows(mask, 32) is win
        assert suite()[0] is entry
        after = (plan.layout.slots, tr.sampled_fill_bytes, win.occupied_counts, entry.csr.values)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert {r: memo.counters()[r] for r in ("plan", "trace", "suite")} == {
            "plan": (1, 1), "trace": (1, 1), "suite": (2, 1)}

    def test_copied_stats_hit_is_fresh(self):
        a, _, n = _spmm_problem(seed=11)
        kern = OctetSpmmKernel()
        ref = stats_signature(kern.stats_for(a, n))
        st = kern.stats_for(a, n)
        st.ilp = 9
        st.global_mem.load_sectors += 1
        again = kern.stats_for(a, n)
        assert again is not st
        assert stats_signature(again) == ref
        est = kern._model.estimate(again)
        est.time_us = -1.0
        assert kern._model.estimate(again).time_us > 0

    def test_operands_stay_writable(self):
        a, b, n = _spmm_problem(seed=12)
        q, kt, mask = _sddmm_problem(seed=12)
        for _ in range(2):  # a miss, then a hit
            OctetSpmmKernel(simulate=True).run(a, b)
            trace.trace_octet_spmm(a, n)
            OctetSddmmKernel(simulate=True).run(q, kt, mask)
            analyze_windows(mask, 32)
        assert memo.counters()["plan"][0] > 0
        # topology index arrays are sealed by their digest
        # (memo.signature); values and dense operands are never frozen
        for arr in (a.values, b, q, kt):
            assert arr.flags.writeable
