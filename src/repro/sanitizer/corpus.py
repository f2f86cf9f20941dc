"""Injected-violation corpus: broken kernels that each trip ONE checker.

The sanitizer is only trustworthy if every checker demonstrably fires,
so this module ships one deliberately-broken fixture per checker
family — the analog of compute-sanitizer's own test binaries.  Each
``*_report()`` function builds a small seeded problem, injects exactly
one contract violation, runs the sanitizer surface that owns the
contract and returns the resulting report; ``tests/test_sanitizer.py``
asserts each report is flagged by its *intended* checker and no other.

Fixtures:

* :func:`oob_column_index_report` — a CVSE column index pointing past
  K (corrupted post-construction: the format validates at build time),
  so the B-row gather walks off the operand (**memcheck**);
* :func:`missing_barrier_report` — cooperative staging with the
  inter-phase ``__syncthreads`` dropped (**racecheck**);
* :func:`divergent_barrier_report` — a barrier not reached by every
  warp of the CTA (**synccheck**);
* :func:`unowned_writeback_report` — an octet writing its accumulator
  fragment into the neighbouring octet's owned rows (**ownership**);
* :func:`dropped_switch_report` — the ``arch`` SDDMM issuing only half
  its HMMA steps with the SWITCH flag (**ownership**, accounting);
* :func:`inflated_flops_report` — a ``KernelStats`` claiming more
  useful FLOPs than its issued math instructions can retire
  (**statcheck**).
"""

from __future__ import annotations

import numpy as np

from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from ..perfmodel import trace
from . import memcheck, racecheck, statcheck
from .findings import Checker, SanitizerReport
from .harness import ProblemSpec, _sddmm_problem, _spmm_problem

__all__ = [
    "oob_column_index_report",
    "missing_barrier_report",
    "divergent_barrier_report",
    "unowned_writeback_report",
    "dropped_switch_report",
    "inflated_flops_report",
    "all_reports",
]


def _small_spmm(seed: int):
    """A 32x64 (V=4, 40% dense) CVSE operand and its 64x128 dense B."""
    return _spmm_problem(ProblemSpec("corpus", m=32, k=64, n=128, v=4,
                                     density=0.4, seed=seed))


def oob_column_index_report() -> SanitizerReport:
    """A column index pointing past K makes the B gather walk off the
    operand — memcheck must flag the out-of-extent sector."""
    a, _ = _small_spmm(seed=31)
    n = 128
    amap = memcheck.spmm_octet_address_map(a, n)
    # the format validates indices at construction, so corrupt the
    # payload afterwards — the bug class this checker exists for
    a.col_idx[a.col_idx.size // 2] = a.shape[1] * 4
    report = SanitizerReport(kernel="corpus-oob-column")
    report.record(memcheck.check_stream(trace.octet_spmm_cta_sectors(a, n), amap),
                  Checker.MEMCHECK)
    return report


def missing_barrier_report() -> SanitizerReport:
    """Cooperative staging with no barrier between the warps' stores
    and the whole-stage loads — racecheck must see the read-write race."""
    plan = racecheck.staged_plan(
        "corpus-missing-barrier", warps=4, shared_bytes=4096,
        stage_bytes=4096, k_steps=2, barrier=False,
    )
    report = SanitizerReport(kernel="corpus-missing-barrier")
    report.record(racecheck.check_shared_plan(plan), Checker.RACECHECK, Checker.SYNCCHECK)
    return report


def divergent_barrier_report() -> SanitizerReport:
    """A barrier only three of four warps reach (a warp early-exited
    around the ``__syncthreads``) — synccheck must flag it."""
    plan = racecheck.staged_plan(
        "corpus-divergent-barrier", warps=4, shared_bytes=4096,
        stage_bytes=4096, k_steps=1, barrier_warps=(0, 1, 2),
    )
    report = SanitizerReport(kernel="corpus-divergent-barrier")
    # the dropped arrival is a pure synccheck event: the plan's
    # accesses themselves stay disjoint, so racecheck stays quiet
    report.record(racecheck.check_shared_plan(plan), Checker.SYNCCHECK)
    return report


class _UnownedWritebackSpmmKernel(OctetSpmmKernel):
    """Octet 0 writes its accumulator into octet 1's owned rows."""

    def _execute_simulated(self, a, b):
        out = np.array(super()._execute_simulated(a, b))
        # corrupt the writeback of the first nonzero output tile: the
        # 8 switched-LHS rows octet 0 owns land on octet 1's rows
        v = a.vector_length
        if out.shape[1] >= 16:
            out[:v, 8:16] = out[:v, 0:8]
        return out


def unowned_writeback_report() -> SanitizerReport:
    """The ownership differential must catch a cross-octet writeback."""
    a, b = _small_spmm(seed=37)
    kern = _UnownedWritebackSpmmKernel(simulate=True)
    report = SanitizerReport(kernel="corpus-unowned-writeback")
    report.record(racecheck.check_spmm_octet_ownership(kern, a, b), Checker.OWNERSHIP)
    return report


class _DroppedSwitchSddmmKernel(OctetSddmmKernel):
    """An ``arch`` kernel issuing SWITCH on only half its HMMA steps."""

    def _execute_simulated(self, a, b, mask):
        out = super()._execute_simulated(a, b, mask)
        # halve the recorded SWITCH count: the partial switching the
        # Figure 15 contract forbids (the values happen to be produced
        # correctly here — the *discipline* violation is the bug)
        self.last_sim_stats.switch_steps //= 2
        return out


def dropped_switch_report() -> SanitizerReport:
    """Partial SWITCH issue breaks the Mat_b mux pairing contract."""
    a, b, mask = _sddmm_problem(ProblemSpec("corpus", m=32, k=64, n=96, v=4,
                                            density=0.3, seed=41))
    kern = _DroppedSwitchSddmmKernel(variant="arch", simulate=True)
    report = SanitizerReport(kernel="corpus-dropped-switch")
    report.record(racecheck.check_sddmm_octet_ownership(kern, a, b, mask),
                  Checker.OWNERSHIP)
    return report


def inflated_flops_report() -> SanitizerReport:
    """A stats object claiming 50x the FLOPs its instructions retire."""
    a, _ = _small_spmm(seed=43)
    stats = OctetSpmmKernel().stats_for(a, 128)  # memo hit = private copy
    # construction would raise on nonsense, so inflate afterwards —
    # the post-construction-mutation window statcheck exists to close
    stats.flops *= 50.0
    report = SanitizerReport(kernel="corpus-inflated-flops")
    report.record(statcheck.check_stats(stats), Checker.STATCHECK)
    return report


def all_reports() -> dict:
    """Every corpus report, keyed by the checker expected to fire."""
    return {
        Checker.MEMCHECK: oob_column_index_report(),
        Checker.RACECHECK: missing_barrier_report(),
        Checker.SYNCCHECK: divergent_barrier_report(),
        Checker.OWNERSHIP: unowned_writeback_report(),
        Checker.STATCHECK: inflated_flops_report(),
    }
