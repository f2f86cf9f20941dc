"""Discrete-event CTA scheduling across SMs.

The latency model approximates load imbalance with a closed-form factor
(:func:`repro.perfmodel.reuse.work_imbalance`).  This module provides
the ground truth it approximates: an event-driven simulation of the GPU
work distributor — CTAs dispatched in launch order to the SM with a
free slot, each SM running up to ``ctas_per_sm`` CTAs concurrently —
returning the device makespan and per-SM busy times for arbitrary
per-CTA durations.

A test-only oracle: ``TestScheduler`` uses it to bound the closed-form
factor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.config import GPUSpec, default_spec

__all__ = ["ScheduleResult", "simulate_schedule"]


@dataclass
class ScheduleResult:
    """Outcome of scheduling one grid."""

    makespan: float                 # time until the last CTA retires
    sm_busy: np.ndarray             # total busy time per SM
    waves: int                      # ceil(grid / concurrent slots)

    processors: int = 1

    @property
    def mean_busy(self) -> float:
        return float(self.sm_busy.mean())

    @property
    def imbalance(self) -> float:
        """makespan / perfectly-balanced runtime (>= 1).

        The balanced runtime spreads the total serial work over every
        processor; wave quantisation and heavy tails push above it.
        """
        total = float(self.sm_busy.sum())
        if total <= 0:
            return 1.0
        ideal = total / max(1, self.processors)
        return max(1.0, self.makespan / max(1e-12, ideal))


def simulate_schedule(
    cta_durations: Sequence[float],
    ctas_per_sm: int = 1,
    spec: GPUSpec | None = None,
) -> ScheduleResult:
    """Greedy list scheduling: the hardware work distributor's policy.

    ``cta_durations`` are each CTA's *exclusive* execution time on one
    SM slot.  With the default ``ctas_per_sm=1`` the SMs behave as
    work-conserving processors (the regime the latency model's
    imbalance factor approximates); larger values expose multiple slots
    per SM (co-residency) — the per-slot durations are then assumed to
    already include the intra-SM sharing slowdown.

    CTAs launch in order onto the earliest-free slot (ties broken by
    slot id, matching the breadth-first initial assignment).
    """
    spec = spec or default_spec()
    durations = np.asarray(cta_durations, dtype=np.float64).ravel()
    num_sms = spec.num_sms
    slots = num_sms * max(1, ctas_per_sm)
    if durations.size == 0:
        return ScheduleResult(0.0, np.zeros(num_sms), 0, processors=slots)

    # heap of (free_time, slot_id); slot s belongs to SM s % num_sms,
    # so the initial pops assign CTA i to SM i % num_sms.
    heap = [(0.0, s) for s in range(min(slots, durations.size) or 1)]
    heapq.heapify(heap)
    busy = np.zeros(num_sms, dtype=np.float64)
    makespan = 0.0
    for d in durations:
        free_at, slot = heapq.heappop(heap)
        end = free_at + float(d)
        busy[slot % num_sms] += float(d)
        makespan = max(makespan, end)
        heapq.heappush(heap, (end, slot))
    waves = -(-durations.size // slots)
    return ScheduleResult(makespan=makespan, sm_busy=busy, waves=waves, processors=slots)
