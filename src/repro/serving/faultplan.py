"""Seeded fault schedule for the serving simulator.

The serving layer's declared fault sites (catalogued in
``docs/ROBUSTNESS.md``):

==========================  ==============================================
site                        effect
==========================  ==============================================
``serving.worker.stall``    a worker freezes mid-batch for ``stall_us``;
                            the in-flight execution's completion slides
                            (hedged retries are the recovery path)
``serving.worker.latency``  a cluster-wide latency-spike window: every
                            execution dispatched inside it runs
                            ``spike_factor`` slower (the memory-bound
                            inflation regime)
``serving.batch.result``    a TCU batch execution returns a corrupted
                            result; detected by result verification
                            (``REPRO_SERVING_VERIFY``) and never served
==========================  ==============================================

A serving run needs a *schedule* of faults across a long
virtual-time horizon, not a single corruption.  :class:`FaultPlan`
pre-draws that schedule from ``np.random.default_rng`` sub-streams of
one seed: stall events ``(t, worker)``, spike windows ``(t0, t1)``,
and a per-execution corruption stream indexed by execution ordinal —
so the same ``(profile, seed)`` always injects the same faults at the
same virtual times, and the tests in ``tests/test_serving.py`` can
score detection and recovery record-for-record.

Corruption targets only the TCU (tensor-core) kernel variant: the
reduced-precision HMMA path is the reproduction's silent-data-
corruption surface (the octet accumulator writeback that the
sanitizer's ownership check guards); the FPU fallback variant is the
clean — slower — harbour the degradation controller retreats to.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .workload import FaultProfile

__all__ = ["FaultPlan"]

#: corruption draws are materialised in blocks of this many executions
_CORRUPT_BLOCK = 4096


class FaultPlan:
    """Pre-drawn, seeded fault schedule over a virtual-time horizon."""

    def __init__(self, profile: FaultProfile, seed: int, horizon_us: float,
                 workers: int) -> None:
        self.profile = profile
        self.seed = seed
        self.horizon_us = float(horizon_us)
        self.workers = workers

        rng_stall = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        rng_spike = np.random.default_rng(np.random.SeedSequence([seed, 102]))
        self._rng_corrupt = np.random.default_rng(
            np.random.SeedSequence([seed, 103]))

        #: (t_us, worker) stall events, time-ordered
        self.stalls: List[Tuple[float, int]] = []
        if profile.stall_rate_per_s > 0 and workers > 0:
            n = int(np.ceil(profile.stall_rate_per_s * horizon_us / 1e6))
            times = np.sort(rng_stall.uniform(0.0, horizon_us, size=n))
            targets = rng_stall.integers(0, workers, size=n)
            self.stalls = [(float(t), int(w)) for t, w in zip(times, targets)]

        #: (t0_us, t1_us) spike windows, time-ordered, non-overlapping
        self.spikes: List[Tuple[float, float]] = []
        if profile.spike_rate_per_s > 0:
            n = int(np.ceil(profile.spike_rate_per_s * horizon_us / 1e6))
            starts = np.sort(rng_spike.uniform(0.0, horizon_us, size=n))
            last_end = -1.0
            for t0 in starts:
                t0 = max(float(t0), last_end)
                t1 = t0 + profile.spike_us
                self.spikes.append((t0, t1))
                last_end = t1
        self._spike_starts = np.array([s[0] for s in self.spikes])
        self._spike_ends = np.array([s[1] for s in self.spikes])

        self._corrupt_draws = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------- #
    def latency_factor(self, now_us: float) -> float:
        """Service-time multiplier at ``now_us`` (the
        ``serving.worker.latency`` site): ``spike_factor`` inside a
        spike window, 1.0 outside."""
        if not self.spikes:
            return 1.0
        i = int(np.searchsorted(self._spike_starts, now_us, side="right")) - 1
        if i >= 0 and now_us < self._spike_ends[i]:
            return self.profile.spike_factor
        return 1.0

    def corrupt(self, exec_index: int, variant: str) -> bool:
        """Whether execution ordinal ``exec_index`` returns a corrupted
        result (the ``serving.batch.result`` site).  Only the TCU
        variant corrupts; draws are indexed, so replaying the same
        execution order replays the same corruptions."""
        if self.profile.corrupt_prob <= 0 or variant != "tcu":
            return False
        while exec_index >= self._corrupt_draws.size:
            block = self._rng_corrupt.random(_CORRUPT_BLOCK) < self.profile.corrupt_prob
            self._corrupt_draws = np.concatenate([self._corrupt_draws, block])
        return bool(self._corrupt_draws[exec_index])
