"""Admission, retry/hedging, and degradation policies for the simulator.

Everything here is deterministic — policies read the *virtual* clock
the simulator passes in and never draw randomness, so the same request
stream always produces the same admission decisions, retry schedule
and degradation trajectory.

* :class:`TokenBucket` — per-tenant admission control.  Each tenant
  refills at its fair share of cluster capacity (times a small
  headroom); a request that cannot take its token count is shed with
  a typed ``shed-admission`` outcome, never silently dropped.
* :class:`RetryPolicy` — deterministic exponential backoff,
  ``backoff_us * 2**attempt`` with no jitter.
* :class:`HedgePolicy` — straggler insurance: a batch still running
  past ``multiplier x`` its expected service time is re-dispatched to
  an idle worker; the first completion wins.
* :class:`DegradationLevel` / :class:`SLOGuardrail` — the controller.
  Level 0-2 trades throughput for latency (shrink the batch window,
  then tighten admission and queue caps); a separate corruption signal
  falls the cluster back from the TCU kernel variant to the FPU one
  while detections persist (the reduced-precision tensor-core path is
  the silent-data-corruption surface — see docs/SERVING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "TokenBucket",
    "RetryPolicy",
    "HedgePolicy",
    "DegradationLevel",
    "DEGRADATION_LEVELS",
    "SLOGuardrail",
]


class TokenBucket:
    """Deterministic token bucket on the simulator's virtual clock."""

    def __init__(self, rate_per_us: float, burst: float) -> None:
        self.rate = float(rate_per_us)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_us = 0.0

    def try_take(self, now_us: float, tokens: float, rate_factor: float = 1.0) -> bool:
        """Refill to ``now_us`` (at ``rate * rate_factor``) and take
        ``tokens`` if available; ``False`` sheds the request."""
        if now_us > self.last_us:
            self.tokens = min(
                self.burst, self.tokens + self.rate * rate_factor * (now_us - self.last_us))
            self.last_us = now_us
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded deterministic retries for failed (corrupt) batches."""

    max_attempts: int = 3       # total executions, including the first
    backoff_us: float = 500.0

    def delay_us(self, failures: int) -> float:
        """Backoff before retry number ``failures`` (1-based):
        ``backoff_us * 2**(failures - 1)`` — no jitter."""
        return self.backoff_us * (2.0 ** (failures - 1))


@dataclass(frozen=True)
class HedgePolicy:
    """Re-dispatch a straggling batch to an idle worker."""

    multiplier: float = 2.5     # hedge when elapsed > multiplier x expected
    slack_us: float = 500.0     # absolute slack on top
    max_hedges: int = 1         # duplicate executions per batch

    def deadline_us(self, dispatch_us: float, expected_us: float) -> float:
        """Virtual time at which the batch is declared a straggler."""
        return dispatch_us + self.multiplier * expected_us + self.slack_us


@dataclass(frozen=True)
class DegradationLevel:
    """One rung of the graceful-degradation ladder."""

    level: int
    name: str
    window_factor: float        # scales the nominal batch window
    max_tokens_factor: float    # scales the nominal max batch tokens
    admit_factor: float         # scales every tenant's token-bucket rate
    queue_factor: float         # scales the queued-token backpressure cap


#: the ladder the guardrail walks: shed latency first (smaller batch
#: windows start batches sooner), then shed load (tighter admission
#: and queue caps) — each rung keeps the SLO at the cost of goodput
DEGRADATION_LEVELS: Sequence[DegradationLevel] = (
    DegradationLevel(0, "nominal", 1.0, 1.0, 1.0, 1.0),
    DegradationLevel(1, "shrink-window", 0.25, 0.5, 0.9, 0.8),
    DegradationLevel(2, "tighten-admission", 0.1, 0.5, 0.7, 0.5),
)


class SLOGuardrail:
    """Windowed SLO controller driving the degradation level.

    Ticks on a fixed virtual-time interval; between ticks it ingests
    per-request latency/SLO ratios and corruption detections.  A tick
    escalates when the windowed p99 ratio or queue pressure crosses the
    red line, de-escalates after ``healthy_ticks`` consecutive green
    ones, and (independently) engages the FPU kernel fallback for
    ``fallback_hold_us`` whenever corruption detections cluster.
    """

    RING = 256                  # latency samples the window keeps

    def __init__(
        self,
        tick_us: float = 5_000.0,
        escalate_ratio: float = 0.9,
        deescalate_ratio: float = 0.6,
        escalate_queue: float = 0.9,
        deescalate_queue: float = 0.5,
        healthy_ticks: int = 3,
        corrupt_trigger: int = 2,
        fallback_hold_us: float = 250_000.0,
    ) -> None:
        self.tick_us = tick_us
        self.escalate_ratio = escalate_ratio
        self.deescalate_ratio = deescalate_ratio
        self.escalate_queue = escalate_queue
        self.deescalate_queue = deescalate_queue
        self.healthy_ticks = healthy_ticks
        self.corrupt_trigger = corrupt_trigger
        self.fallback_hold_us = fallback_hold_us

        self.level = 0
        self.fpu_fallback_until = -1.0
        self._ratios: List[float] = []
        self._healthy_streak = 0
        self._corrupt_in_window = 0
        self.escalations = 0
        self.deescalations = 0
        self.fallback_engagements = 0

    # ------------------------------------------------------------- #
    def observe_latency(self, ratio: float) -> None:
        """Ingest one completed request's ``latency / SLO`` ratio."""
        ring = self._ratios
        ring.append(ratio)
        if len(ring) > self.RING:
            del ring[: len(ring) - self.RING]

    def observe_corruption(self, now_us: float) -> None:
        """Ingest one detected-corruption event; clustering engages
        (or extends) the FPU fallback immediately."""
        self._corrupt_in_window += 1
        if self._corrupt_in_window >= self.corrupt_trigger:
            if now_us > self.fpu_fallback_until:
                self.fallback_engagements += 1
            self.fpu_fallback_until = now_us + self.fallback_hold_us

    def fpu_fallback(self, now_us: float) -> bool:
        """Whether batches should run the FPU kernel variant now."""
        return now_us <= self.fpu_fallback_until

    def windowed_p99(self) -> float:
        """p99 of the latency/SLO ratios currently in the window."""
        if not self._ratios:
            return 0.0
        return float(np.quantile(np.array(self._ratios), 0.99))

    def tick(self, now_us: float, queue_fraction: float) -> DegradationLevel:
        """One control decision; returns the (possibly new) level."""
        p99 = self.windowed_p99()
        unhealthy = p99 >= self.escalate_ratio or queue_fraction >= self.escalate_queue
        healthy = p99 <= self.deescalate_ratio and queue_fraction <= self.deescalate_queue
        if unhealthy:
            self._healthy_streak = 0
            if self.level < len(DEGRADATION_LEVELS) - 1:
                self.level += 1
                self.escalations += 1
        elif healthy:
            self._healthy_streak += 1
            if self._healthy_streak >= self.healthy_ticks and self.level > 0:
                self.level -= 1
                self.deescalations += 1
                self._healthy_streak = 0
        else:
            self._healthy_streak = 0
        self._corrupt_in_window = 0
        return DEGRADATION_LEVELS[self.level]

    @property
    def current(self) -> DegradationLevel:
        """The active degradation level."""
        return DEGRADATION_LEVELS[self.level]
