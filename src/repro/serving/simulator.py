"""The deterministic discrete-event serving simulator.

One :func:`simulate` call plays a generated workload
(:mod:`repro.serving.workload`) against a virtual cluster of workers
whose batch service times come from the kernel latency model
(:mod:`repro.serving.costmodel`), under the scenario's seeded fault
schedule (:mod:`repro.serving.faultplan`) and the admission /
retry / degradation policies of :mod:`repro.serving.policies`.

Determinism contract: the only randomness is the pre-drawn workload
and fault plan; the event loop itself runs on a ``heapq`` whose
entries carry a monotonically increasing sequence number, so event
order is a *total* order independent of float ties, and two runs with
the same ``(scenario, n_requests, seed)`` produce bit-identical
request ledgers (:meth:`ServingResult.ledger_digest`).

Every request ends in exactly one typed outcome — completed, shed at
admission, shed by queue backpressure, expired past its deadline,
failed after exhausting retries, or (verification disabled only)
corrupt-served.  Nothing is silently dropped: ``offered ==
sum(outcome counts)`` is asserted at the end of every run.

Event kinds (staleness-checked where later events can supersede):

* ``CLOSE(config)`` — a batch window expired; stale if the config's
  pending-close time moved (a token-cap close already fired).
* ``DONE(exec)`` — an execution finished; stale unless its timestamp
  equals the execution's current ``done_time`` (worker stalls slide
  completions), superseded if a hedge already completed the batch.
* ``HEDGE(exec)`` — straggler check for one execution.
* ``STALL(worker)`` / ``TICK`` / ``RETRY(batch)`` — fault injection,
  guardrail control, and delayed re-dispatch.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import envgates
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from .costmodel import VERIFY_OVERHEAD_US, ServingCostModel
from .faultplan import FaultPlan
from .policies import HedgePolicy, RetryPolicy, SLOGuardrail, TokenBucket
from .workload import Scenario, Workload, generate_workload

__all__ = ["OUTCOMES", "ServingResult", "simulate"]

#: typed request outcomes (ledger codes index this tuple)
OUTCOMES = (
    "pending",          # 0 — never terminal in a finished run
    "completed",        # 1 — served within the lifecycle
    "shed-admission",   # 2 — tenant token bucket empty
    "shed-queue",       # 3 — queue-depth backpressure
    "expired",          # 4 — deadline unmeetable, removed at batching
    "failed",           # 5 — retries exhausted (corrupt results)
    "corrupt-served",   # 6 — verification disabled: corruption shipped
)
(PENDING, COMPLETED, SHED_ADMISSION, SHED_QUEUE,
 EXPIRED, FAILED, CORRUPT_SERVED) = range(7)

# event kinds, ordered only by (time, seq) — kind is payload, not key
K_CLOSE, K_DONE, K_HEDGE, K_STALL, K_TICK, K_RETRY = range(6)

#: nominal batch window (scaled by the degradation level)
BATCH_WINDOW_US = 1_500.0
#: an idle worker forms a batch early once a config queues this much
MIN_FORM_TOKENS = 512
#: queued work may cover at most this fraction of the tightest SLO
#: (drain time at cluster capacity) before backpressure sheds
QUEUE_SLO_FRACTION = 0.3
#: admission headroom: tenant buckets refill slightly above fair share
ADMIT_HEADROOM = 1.1
#: bucket burst depth, in microseconds of the tenant's refill rate
BURST_WINDOW_US = 12_000.0
#: a request is expired at batch formation when its remaining slack is
#: under this many full-batch (max tokens, fully contended) service
#: times — the queue-wait + retry margin of the doom check
DOOM_MARGIN = 2.0


@dataclass
class _Batch:
    """A formed batch: one kernel launch (plus retries/hedges)."""

    id: int
    config: int
    reqs: List[int]
    tokens: int
    failures: int = 0
    hedges: int = 0
    done: bool = False


@dataclass
class _Exec:
    """One execution of a batch on a worker."""

    id: int
    batch: _Batch
    worker: int
    t0: float
    done_time: float
    variant: str
    corrupt: bool
    is_hedge: bool
    settled: bool = False


@dataclass
class ServingResult:
    """Everything a finished simulation knows, ledger first."""

    scenario: Scenario
    seed: int
    n_requests: int
    workload: Workload
    capacity_tokens_per_us: float
    #: per-request ledger arrays (aligned with the workload arrays)
    outcome: np.ndarray      # int8 code into OUTCOMES
    finish_us: np.ndarray    # float64 terminal time (arrival-relative clock)
    attempts: np.ndarray     # int16 batch executions backing the outcome
    #: (worker, t0_us, t1_us, batch_id, config, tokens, variant,
    #: corrupt, superseded) per settled execution, in settle order
    exec_log: List[Tuple[int, float, float, int, int, int, str, bool, bool]]
    #: (t_us, level) guardrail trajectory
    level_trace: List[Tuple[float, int]]
    counters: Dict[str, float]
    end_time_us: float

    def outcome_counts(self) -> Dict[str, int]:
        """``{outcome name: requests}`` over the whole ledger."""
        binc = np.bincount(self.outcome, minlength=len(OUTCOMES))
        return {name: int(binc[i]) for i, name in enumerate(OUTCOMES)}

    def completed_latencies_us(self) -> np.ndarray:
        """Latency of every completed request (finish - arrival)."""
        m = self.outcome == COMPLETED
        return (self.finish_us[m] - self.workload.arrival_us[m])

    def goodput_tokens(self) -> int:
        """Tokens of completed requests (the goodput numerator)."""
        return int(self.workload.tokens[self.outcome == COMPLETED].sum())

    def ledger_digest(self) -> str:
        """Content digest of the request ledger — bit-identical across
        same-seed reruns (the determinism acceptance gate)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.outcome.tobytes())
        h.update(self.attempts.tobytes())
        h.update(self.finish_us.tobytes())
        h.update(self.workload.tokens.tobytes())
        h.update(self.workload.tenant.tobytes())
        return h.hexdigest()


class _Sim:
    """Mutable event-loop state for one :func:`simulate` call."""

    def __init__(self, scenario: Scenario, workload: Workload,
                 cost: ServingCostModel, plan: FaultPlan,
                 retry: RetryPolicy, hedge: HedgePolicy,
                 guardrail: SLOGuardrail, verify: bool) -> None:
        self.sc = scenario
        self.wl = workload
        self.cost = cost
        self.plan = plan
        self.retry = retry
        self.hedge = hedge
        self.guard = guardrail
        self.verify = verify

        n = workload.n
        self.outcome = np.zeros(n, dtype=np.int8)
        self.finish = np.zeros(n, dtype=np.float64)
        self.attempts = np.zeros(n, dtype=np.int16)
        self.terminal = 0

        self.heap: List[Tuple[float, int, int, int, float]] = []
        self._seq = 0

        n_cfg = len(cost._configs)
        #: per-config earliest-deadline-first queues: (deadline, req) heaps
        self.queues: List[List[Tuple[float, int]]] = [[] for _ in range(n_cfg)]
        self.queued_tok = [0] * n_cfg
        self.queued_tok_total = 0
        self.ready: Deque[_Batch] = deque()
        self.ready_tok = 0
        self.pending_close: List[Optional[float]] = [None] * n_cfg
        #: doomed-request slack floor: a full-cap batch under full
        #: contention, with retry margin — expire anything tighter
        self.doom_us = [
            DOOM_MARGIN * cost.service_us(c, cost.max_batch_tokens, "tcu",
                                          busy_workers=scenario.workers)
            for c in range(n_cfg)
        ]

        self.worker_exec: List[Optional[int]] = [None] * scenario.workers
        self.execs: List[_Exec] = []
        self.batches: List[_Batch] = []
        self.exec_ordinal = 0

        cap = workload.capacity_tokens_per_us
        min_slo = min(t.slo_us for t in scenario.tenants)
        self.queue_cap = cap * QUEUE_SLO_FRACTION * min_slo
        wsum = sum(t.weight for t in scenario.tenants)
        self.buckets = [
            TokenBucket(rate_per_us=(t.weight / wsum) * cap * ADMIT_HEADROOM,
                        burst=(t.weight / wsum) * cap * BURST_WINDOW_US)
            for t in scenario.tenants
        ]
        self.slo = np.array([t.slo_us for t in scenario.tenants])

        self.exec_log: List[Tuple[int, float, float, int, int, int, str,
                                  bool, bool]] = []
        self.level_trace: List[Tuple[float, int]] = []
        self.c = {k: 0 for k in (
            "offered", "admitted", "completed", "expired", "failed",
            "shed_admission", "shed_queue", "corrupt_served",
            "batches", "retries", "hedges", "superseded",
            "stalls_applied", "spiked_execs",
            "faults_injected", "faults_detected",
        )}

    # -- heap ------------------------------------------------------- #
    def push(self, t: float, kind: int, a: int = 0, b: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, a, b))

    # -- terminal outcomes ------------------------------------------ #
    def settle(self, r: int, code: int, now: float, attempts: int = 0) -> None:
        self.outcome[r] = code
        self.finish[r] = now
        self.attempts[r] = attempts
        self.terminal += 1

    # -- admission (one request arrives) ---------------------------- #
    def arrive(self, r: int, now: float) -> None:
        self.c["offered"] += 1
        level = self.guard.current
        ten = int(self.wl.tenant[r])
        tok = int(self.wl.tokens[r])
        if not self.buckets[ten].try_take(now, tok,
                                          rate_factor=level.admit_factor):
            self.c["shed_admission"] += 1
            self.settle(r, SHED_ADMISSION, now)
            return
        if (self.queued_tok_total + self.ready_tok + tok
                > self.queue_cap * level.queue_factor):
            self.c["shed_queue"] += 1
            self.settle(r, SHED_QUEUE, now)
            return
        self.c["admitted"] += 1
        cfg = self.cost.tenant_config[ten]
        heapq.heappush(self.queues[cfg], (float(self.wl.deadline_us[r]), r))
        self.queued_tok[cfg] += tok
        self.queued_tok_total += tok
        cap = self.cost.max_batch_tokens * level.max_tokens_factor
        if self.queued_tok[cfg] >= cap:
            self.pending_close[cfg] = None   # cap close supersedes window
            self.form_and_dispatch(cfg, now)
        else:
            window = BATCH_WINDOW_US * level.window_factor
            head_deadline = self.queues[cfg][0][0]
            t_close = max(now, min(now + window,
                                   head_deadline - self.doom_us[cfg]))
            pending = self.pending_close[cfg]
            if pending is None or t_close < pending:
                self.pending_close[cfg] = t_close
                self.push(t_close, K_CLOSE, cfg, t_close)

    # -- batching --------------------------------------------------- #
    def form_batch(self, cfg: int, now: float) -> Optional[_Batch]:
        """Pop the config's queue — earliest deadline first — into a
        batch, expiring doomed requests with a typed outcome."""
        level = self.guard.current
        cap = self.cost.max_batch_tokens * level.max_tokens_factor
        doom = self.doom_us[cfg]
        q = self.queues[cfg]
        reqs: List[int] = []
        total = 0
        while q:
            deadline, r = q[0]
            tok = int(self.wl.tokens[r])
            if reqs and total + tok > cap:
                break
            heapq.heappop(q)
            self.queued_tok[cfg] -= tok
            self.queued_tok_total -= tok
            if deadline - now < doom:
                self.c["expired"] += 1
                self.settle(r, EXPIRED, now)
                continue
            reqs.append(r)
            total += tok
        if not reqs:
            return None
        batch = _Batch(id=len(self.batches), config=cfg, reqs=reqs,
                       tokens=total)
        self.batches.append(batch)
        self.c["batches"] += 1
        return batch

    def form_and_dispatch(self, cfg: int, now: float) -> None:
        batch = self.form_batch(cfg, now)
        if batch is not None:
            self.dispatch(batch, now)
        if self.queues[cfg] and self.pending_close[cfg] is None:
            window = BATCH_WINDOW_US * self.guard.current.window_factor
            t_close = now + window
            self.pending_close[cfg] = t_close
            self.push(t_close, K_CLOSE, cfg, t_close)

    def idle_worker(self) -> Optional[int]:
        for w, e in enumerate(self.worker_exec):
            if e is None:
                return w
        return None

    def dispatch(self, batch: _Batch, now: float) -> None:
        w = self.idle_worker()
        if w is None:
            self.ready.append(batch)
            self.ready_tok += batch.tokens
        else:
            self.start_exec(batch, w, now, is_hedge=False)

    # -- execution -------------------------------------------------- #
    def start_exec(self, batch: _Batch, worker: int, now: float,
                   is_hedge: bool) -> None:
        busy = sum(1 for e in self.worker_exec if e is not None) + 1
        variant = "fpu" if self.guard.fpu_fallback(now) else "tcu"
        service = self.cost.service_us(batch.config, batch.tokens, variant,
                                       busy_workers=busy)
        factor = self.plan.latency_factor(now)
        if factor > 1.0:
            service *= factor
            self.c["spiked_execs"] += 1
            self.c["faults_injected"] += 1
        if self.verify:
            service += VERIFY_OVERHEAD_US
        corrupt = self.plan.corrupt(self.exec_ordinal, variant)
        self.exec_ordinal += 1
        if corrupt:
            self.c["faults_injected"] += 1
        ex = _Exec(id=len(self.execs), batch=batch, worker=worker, t0=now,
                   done_time=now + service, variant=variant, corrupt=corrupt,
                   is_hedge=is_hedge)
        self.execs.append(ex)
        self.worker_exec[worker] = ex.id
        self.push(ex.done_time, K_DONE, ex.id, ex.done_time)
        if not is_hedge and self.hedge.max_hedges > 0:
            self.push(self.hedge.deadline_us(now, service), K_HEDGE, ex.id)

    def on_worker_free(self, worker: int, now: float) -> None:
        while self.ready:
            batch = self.ready.popleft()
            self.ready_tok -= batch.tokens
            if batch.done:
                continue                # hedged duplicate already won
            self.start_exec(batch, worker, now,
                            is_hedge=batch.hedges > 0)
            return
        # work-conserving early formation: the config whose head
        # request has the tightest deadline, once enough tokens queued
        best_cfg, best_deadline = -1, np.inf
        for cfg, q in enumerate(self.queues):
            if q and q[0][0] < best_deadline:
                best_cfg, best_deadline = cfg, q[0][0]
        if best_cfg < 0:
            return
        level = self.guard.current
        cap = self.cost.max_batch_tokens * level.max_tokens_factor
        if self.queued_tok[best_cfg] >= min(MIN_FORM_TOKENS, cap):
            self.pending_close[best_cfg] = None
            self.form_and_dispatch(best_cfg, now)

    # -- event handlers --------------------------------------------- #
    def on_done(self, eid: int, t: float, now: float) -> None:
        ex = self.execs[eid]
        if t != ex.done_time or ex.settled:
            return                      # stall slid this completion
        ex.settled = True
        if self.worker_exec[ex.worker] == eid:
            self.worker_exec[ex.worker] = None
        batch = ex.batch
        superseded = batch.done
        self.exec_log.append((ex.worker, ex.t0, now, batch.id, batch.config,
                              batch.tokens, ex.variant, ex.corrupt,
                              superseded))
        if superseded:
            self.c["superseded"] += 1
        elif ex.corrupt and self.verify:
            self.c["faults_detected"] += 1
            self.guard.observe_corruption(now)
            batch.failures += 1
            if batch.failures >= self.retry.max_attempts:
                batch.done = True
                self.c["failed"] += len(batch.reqs)
                for r in batch.reqs:
                    self.settle(r, FAILED, now, attempts=batch.failures)
            else:
                self.c["retries"] += 1
                self.push(now + self.retry.delay_us(batch.failures),
                          K_RETRY, batch.id)
        elif ex.corrupt:
            batch.done = True           # verification off: SDC ships
            self.c["corrupt_served"] += len(batch.reqs)
            for r in batch.reqs:
                self.settle(r, CORRUPT_SERVED, now,
                            attempts=batch.failures + 1)
        else:
            batch.done = True
            self.c["completed"] += len(batch.reqs)
            for r in batch.reqs:
                self.settle(r, COMPLETED, now, attempts=batch.failures + 1)
                lat = now - float(self.wl.arrival_us[r])
                self.guard.observe_latency(
                    lat / float(self.slo[self.wl.tenant[r]]))
        self.on_worker_free(ex.worker, now)

    def on_hedge(self, eid: int, now: float) -> None:
        ex = self.execs[eid]
        batch = ex.batch
        if ex.settled or batch.done or batch.hedges >= self.hedge.max_hedges:
            return
        batch.hedges += 1
        self.c["hedges"] += 1
        w = self.idle_worker()
        if w is not None:
            self.start_exec(batch, w, now, is_hedge=True)
        else:
            # no spare worker right now: jump the ready queue so the
            # duplicate dispatches the moment one frees (the original
            # may still win; the loser is superseded)
            self.ready.appendleft(batch)
            self.ready_tok += batch.tokens

    def on_stall(self, worker: int, dur: float, now: float) -> None:
        eid = self.worker_exec[worker]
        if eid is None:
            return                      # idle-worker stall is absorbed
        ex = self.execs[eid]
        ex.done_time += dur
        self.c["stalls_applied"] += 1
        self.c["faults_injected"] += 1
        self.push(ex.done_time, K_DONE, eid, ex.done_time)

    def on_tick(self, now: float) -> None:
        frac = min(1.0, (self.queued_tok_total + self.ready_tok)
                   / self.queue_cap)
        level = self.guard.tick(now, frac)
        if not self.level_trace or self.level_trace[-1][1] != level.level:
            self.level_trace.append((now, level.level))

    # -- main loop -------------------------------------------------- #
    def run(self) -> float:
        wl = self.wl
        n = wl.n
        for t, w in self.plan.stalls:
            self.push(t, K_STALL, w, self.plan.profile.stall_us)
        self.push(self.guard.tick_us, K_TICK)
        self.level_trace.append((0.0, 0))

        arr = wl.arrival_us
        i = 0
        now = 0.0
        max_events = 400 * n + 100_000   # runaway backstop, never hit
        events = 0
        while self.terminal < n and events < max_events:
            events += 1
            next_t = self.heap[0][0] if self.heap else np.inf
            if i < n and arr[i] <= next_t:
                now = float(arr[i])
                self.arrive(i, now)
                i += 1
                continue
            if not self.heap:
                break
            t, _, kind, a, b = heapq.heappop(self.heap)
            now = t
            if kind == K_CLOSE:
                if self.pending_close[a] == b:
                    self.pending_close[a] = None
                    self.form_and_dispatch(a, now)
            elif kind == K_DONE:
                self.on_done(a, t, now)
            elif kind == K_HEDGE:
                self.on_hedge(a, now)
            elif kind == K_STALL:
                self.on_stall(a, b, now)
            elif kind == K_RETRY:
                batch = self.batches[a]
                if not batch.done:
                    self.dispatch(batch, now)
            elif kind == K_TICK:
                self.on_tick(now)
                if self.terminal < n:
                    self.push(now + self.guard.tick_us, K_TICK)
        # safety net: the loop above drains every request; a leftover
        # pending request would be a scheduler bug — fail loudly
        leftovers = int((self.outcome == PENDING).sum())
        if leftovers:
            raise RuntimeError(
                f"simulator ended with {leftovers} pending requests")
        return now


def simulate(
    scenario: Scenario,
    n_requests: int,
    seed: int,
    *,
    workload: Optional[Workload] = None,
    verify: Optional[bool] = None,
) -> ServingResult:
    """Run one serving simulation and return its ledger.

    ``workload`` short-circuits generation (the sweep reuses capacity
    across loads); ``verify`` overrides the ``REPRO_SERVING_VERIFY``
    gate (batch-result verification on by default).
    """
    if verify is None:
        verify = envgates.flag("REPRO_SERVING_VERIFY")
    with span("serving.run", scenario=scenario.name, requests=n_requests,
              seed=seed):
        cost = ServingCostModel(scenario, seed=seed)
        if workload is None:
            workload = generate_workload(
                scenario, n_requests, seed, cost.capacity_tokens_per_us())
        # the horizon tracks the arrival span (plus drain slack) so the
        # profile's per-second fault rates hold during the actual run
        plan = FaultPlan(scenario.faults, seed,
                         horizon_us=workload.duration_us * 1.25 + 50_000.0,
                         workers=scenario.workers)
        sim = _Sim(scenario, workload, cost, plan,
                   RetryPolicy(), HedgePolicy(), SLOGuardrail(),
                   verify=verify)
        end = sim.run()

        c = sim.c
        obs_metrics.counter_add("serving.requests.offered", c["offered"])
        obs_metrics.counter_add("serving.requests.admitted", c["admitted"])
        obs_metrics.counter_add("serving.requests.completed", c["completed"])
        obs_metrics.counter_add("serving.requests.expired", c["expired"])
        obs_metrics.counter_add("serving.requests.failed", c["failed"])
        obs_metrics.counter_add("serving.shed.admission", c["shed_admission"])
        obs_metrics.counter_add("serving.shed.queue", c["shed_queue"])
        obs_metrics.counter_add("serving.batches", c["batches"])
        obs_metrics.counter_add("serving.retries", c["retries"])
        obs_metrics.counter_add("serving.hedges", c["hedges"])
        obs_metrics.counter_add("serving.faults.injected",
                                c["faults_injected"])
        obs_metrics.counter_add("serving.faults.detected",
                                c["faults_detected"])
        obs_metrics.gauge_set("serving.degradation.level",
                              sim.guard.level)
        for b in sim.batches:
            obs_metrics.observe("serving.batch.tokens", b.tokens)

        counters = {k: float(v) for k, v in c.items()}
        counters["guardrail.escalations"] = float(sim.guard.escalations)
        counters["guardrail.deescalations"] = float(sim.guard.deescalations)
        counters["guardrail.fallback_engagements"] = float(
            sim.guard.fallback_engagements)
        return ServingResult(
            scenario=scenario, seed=seed, n_requests=workload.n,
            workload=workload,
            capacity_tokens_per_us=workload.capacity_tokens_per_us,
            outcome=sim.outcome, finish_us=sim.finish,
            attempts=sim.attempts, exec_log=sim.exec_log,
            level_trace=sim.level_trace, counters=counters,
            end_time_us=end,
        )
