"""Fault-tolerant process-pool fan-out for the experiment sweeps.

:func:`resilient_map` is the scheduler behind ``run_all``, one
experiment per task: one future per task, per-task wall-clock
timeouts, bounded deterministic retries with exponential backoff, and
survival of worker crashes (``BrokenProcessPool`` / OOM-killed
workers) by respawning the pool and continuing.  Every task resolves
to a :class:`TaskOutcome` instead of an exception, so one crashed
experiment cannot discard the finished ones.  Every experiment seeds
its own generators, so results do not depend on which worker ran them.

``jobs <= 1`` falls back to an in-process loop, which additionally
shares the process-wide memo cache across tasks (worker processes each
warm their own).  Killing on timeout requires ``jobs > 1``: an
in-process task cannot be interrupted from the outside, so the serial
path lets the task finish but reports the overrun the same way the
pooled path does — the ``pool.timeouts`` counter plus a
:attr:`TaskOutcome.note` — keeping timeout pressure comparable across
``--jobs`` settings.

Determinism: retries back off by :func:`retry_delay` —
``backoff * 2**attempt`` seconds, no jitter (the serving simulator's
:class:`repro.serving.policies.RetryPolicy` follows the same
convention) — and nothing timing-dependent enters a task's *result*;
only the bookkeeping fields (``seconds``, ``attempts``) vary run to
run, and the checkpoint layer excludes them from its hashes.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import metrics as obs_metrics

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "TaskOutcome",
    "resilient_map",
    "retry_delay",
    "effective_workers",
    "OK",
    "ERROR",
    "TIMEOUT",
    "CRASHED",
    "INTERRUPTED",
]

#: task statuses
OK = "ok"                    # fn returned; ``result`` holds the value
ERROR = "error"              # fn raised on every attempt
TIMEOUT = "timeout"          # exceeded the wall-clock budget every attempt
CRASHED = "crashed"          # the worker process died (segfault/OOM/_exit)
INTERRUPTED = "interrupted"  # sweep stopped (KeyboardInterrupt) before it ran

#: scheduler poll interval (seconds) for the pooled path
_POLL = 0.05


@dataclass
class TaskOutcome:
    """Structured outcome of one task of a resilient fan-out."""

    index: int                  # position in the input sequence
    status: str = INTERRUPTED
    result: Any = None          # fn's return value when ``status == OK``
    error: str = ""             # ``repr(exception)`` of the final attempt
    traceback: str = ""         # formatted traceback of the final attempt
    attempts: int = 0           # executions tried (0 = never started)
    seconds: float = 0.0        # wall clock of the final attempt
    #: operational annotations that do not change the status (e.g. a
    #: serial task that finished but overran its wall-clock budget)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OK


def retry_delay(attempt: int, backoff: float) -> float:
    """Deterministic backoff before re-running a task after attempt
    ``attempt`` (0-based): ``backoff * 2**attempt`` seconds, no jitter.
    Shared by the serial and pooled paths (and mirrored by the serving
    layer's retry policy), so the retry schedule is identical across
    ``--jobs`` settings."""
    return backoff * (2 ** attempt)


def effective_workers(jobs: int, n_tasks: int) -> int:
    """Worker count actually used: never more processes than tasks."""
    return max(1, min(jobs, n_tasks))


#: failure-status -> observability counter (scheduler-side accounting
#: of retry/timeout/crash pressure; see docs/OBSERVABILITY.md)
_STATUS_METRIC = {
    ERROR: "pool.errors",
    TIMEOUT: "pool.timeouts",
    CRASHED: "pool.crashes",
}


def _failure(outcome: TaskOutcome, status: str, exc: Optional[BaseException],
             tb: str = "") -> None:
    metric = _STATUS_METRIC.get(status)
    if metric is not None:
        obs_metrics.counter_add(metric)
    outcome.status = status
    outcome.error = repr(exc) if exc is not None else ""
    outcome.traceback = tb or (
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        if exc is not None
        else ""
    )


# --------------------------------------------------------------------- #
# serial path
# --------------------------------------------------------------------- #
def _serial_resilient(
    fn: Callable[[T], R],
    work: Sequence[T],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    on_outcome: Optional[Callable[[TaskOutcome], None]],
) -> List[TaskOutcome]:
    outcomes = [TaskOutcome(index=i) for i in range(len(work))]
    interrupted = False
    for i, item in enumerate(work):
        out = outcomes[i]
        if interrupted:
            break
        for attempt in range(retries + 1):
            out.attempts = attempt + 1
            t0 = time.perf_counter()
            try:
                out.result = fn(item)
            except KeyboardInterrupt:
                out.seconds = time.perf_counter() - t0
                _failure(out, INTERRUPTED, None)
                interrupted = True
                break
            except Exception as exc:
                out.seconds = time.perf_counter() - t0
                _failure(out, ERROR, exc)
                if attempt < retries:
                    obs_metrics.counter_add("pool.retries")
                    time.sleep(retry_delay(attempt, backoff))
                continue
            out.seconds = time.perf_counter() - t0
            out.status = OK
            out.error = out.traceback = ""
            break
        # an in-process task cannot be killed mid-flight, but an
        # overrun still counts as timeout pressure: same counter as
        # the pooled path, annotated instead of expired
        if timeout is not None and out.seconds > timeout:
            obs_metrics.counter_add(_STATUS_METRIC[TIMEOUT])
            out.note = (f"completed but overran the {timeout}s wall-clock "
                        "budget (in-process tasks cannot be expired)")
        if on_outcome is not None and out.status != INTERRUPTED:
            on_outcome(out)
    return outcomes


# --------------------------------------------------------------------- #
# pooled path
# --------------------------------------------------------------------- #
def _kill_executor(ex: Optional[ProcessPoolExecutor]) -> None:
    """Tear an executor down *now*: cancel queued work and terminate the
    worker processes (a hung or stuck worker would otherwise keep the
    shutdown — and the sweep — waiting forever)."""
    if ex is None:
        return
    procs = list(getattr(ex, "_processes", {}).values())
    ex.shutdown(wait=False, cancel_futures=True)
    for p in procs:
        try:
            p.terminate()
        except Exception:
            pass


def resilient_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Map ``fn`` over ``items``, resolving every task to a
    :class:`TaskOutcome` (input order).

    ``jobs > 1`` fans out over a process pool (``fn`` and the items
    must be picklable), capped at one worker per task.  Per task:

    * an exception is captured (repr + traceback) and retried up to
      ``retries`` times with deterministic exponential backoff;
    * ``timeout`` seconds of wall clock expire the task — the stuck
      worker is terminated, the pool respawned, and co-running tasks
      are resubmitted without consuming an attempt; in serial mode the
      task cannot be killed, so an overrun keeps its result but emits
      the same ``pool.timeouts`` counter and a :attr:`TaskOutcome.note`;
    * a dead worker (``BrokenProcessPool``) poisons every in-flight
      future, so the culprit is identified by re-running the suspects
      one at a time in a fresh pool: collateral tasks complete without
      being charged an attempt, and the task that actually kills its
      worker ends ``CRASHED`` (after ``retries`` more tries);
    * ``KeyboardInterrupt`` in the scheduler shuts the pool down and
      returns immediately: finished tasks keep their outcomes, the
      rest stay ``INTERRUPTED``.

    ``on_outcome`` is invoked with each task's final outcome as soon
    as it is known (completion order) — the runner uses it to persist
    artifacts the moment they exist.
    """
    work: Sequence[T] = list(items)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if not work:
        return []
    obs_metrics.counter_add("pool.tasks", len(work))
    if jobs <= 1 or len(work) == 1:
        obs_metrics.gauge_set("pool.workers", 1)
        return _serial_resilient(fn, work, timeout, retries, backoff, on_outcome)

    outcomes = [TaskOutcome(index=i) for i in range(len(work))]
    workers = effective_workers(jobs, len(work))
    obs_metrics.gauge_set("pool.workers", workers)
    # (index, attempt, not_before): attempt counts real executions;
    # not_before implements the retry backoff without blocking the loop
    pending: deque = deque((i, 0, 0.0) for i in range(len(work)))
    # future -> (index, attempt, submit_time, deadline)
    running: Dict[Future, Tuple[int, int, float, float]] = {}
    # tasks that were in flight when a pool broke: a dead worker poisons
    # every sibling future, so these re-run ONE at a time (attributable:
    # a second breakage with a single task in flight convicts it) and
    # are not charged an attempt unless convicted
    suspects: deque = deque()
    ex: Optional[ProcessPoolExecutor] = None

    def settle(i: int, attempt: int, status: str, exc: Optional[BaseException],
               tb: str = "") -> None:
        """Record a failed attempt; requeue when budget remains."""
        out = outcomes[i]
        out.attempts = attempt + 1
        _failure(out, status, exc, tb)
        if attempt < retries:
            obs_metrics.counter_add("pool.retries")
            pending.append((i, attempt + 1,
                            time.monotonic() + retry_delay(attempt, backoff)))

    def submit(i: int, attempt: int) -> None:
        t0 = time.monotonic()
        fut = ex.submit(fn, work[i])
        deadline = t0 + timeout if timeout is not None else float("inf")
        running[fut] = (i, attempt, t0, deadline)
        outcomes[i].attempts = attempt + 1

    try:
        while pending or running or suspects:
            if ex is None:
                ex = ProcessPoolExecutor(max_workers=workers)
            if suspects:
                # crash triage: exactly one suspect in flight at a time
                if not running:
                    i, attempt = suspects.popleft()
                    submit(i, attempt)
            else:
                # submit at most ``workers`` tasks so a submitted future
                # is (approximately) a *started* future and its deadline
                # is real
                now = time.monotonic()
                delayed = []
                while pending and len(running) < workers:
                    i, attempt, not_before = pending.popleft()
                    if not_before > now:
                        delayed.append((i, attempt, not_before))
                        continue
                    submit(i, attempt)
                pending.extendleft(reversed(delayed))

            if not running:
                time.sleep(_POLL)
                continue
            done, _ = wait(list(running), timeout=_POLL, return_when=FIRST_COMPLETED)

            broken: List[Tuple[int, int]] = []
            broken_exc: Optional[BaseException] = None
            for fut in done:
                i, attempt, t0, _deadline = running.pop(fut)
                out = outcomes[i]
                out.seconds = time.monotonic() - t0
                try:
                    value = fut.result()
                except BrokenProcessPool as exc:
                    broken.append((i, attempt))
                    broken_exc = exc
                except KeyboardInterrupt as exc:
                    # a worker-side Ctrl-C: treat as a whole-sweep stop
                    _failure(out, INTERRUPTED, exc)
                    out.attempts = attempt + 1
                    raise KeyboardInterrupt from exc
                except BaseException as exc:
                    settle(i, attempt, ERROR, exc)
                else:
                    out.status = OK
                    out.result = value
                    out.error = out.traceback = ""
                    if on_outcome is not None:
                        on_outcome(out)

            # expire tasks past their wall-clock budget: the stuck
            # worker must die, which costs the whole pool — co-running
            # tasks are resubmitted without consuming an attempt
            now = time.monotonic()
            expired = [fut for fut, (_, _, _, dl) in running.items() if now > dl]
            if expired:
                for fut in expired:
                    i, attempt, t0, _dl = running.pop(fut)
                    settle(i, attempt, TIMEOUT, None,
                           tb=f"task exceeded the {timeout}s wall-clock budget\n")
                    outcomes[i].error = f"TimeoutError({timeout}s)"
                    outcomes[i].seconds = now - t0
                for fut in list(running):
                    i, attempt, _t0, _dl = running.pop(fut)
                    pending.appendleft((i, attempt, 0.0))
                _kill_executor(ex)
                ex = None
            elif broken:
                # a dead worker broke the pool; siblings still in
                # ``running`` resolve broken too — fold them in, then
                # attribute: a lone in-flight task is the culprit, a
                # crowd goes to one-at-a-time triage uncharged
                for fut in list(running):
                    i, attempt, _t0, _dl = running.pop(fut)
                    broken.append((i, attempt))
                if len(broken) == 1:
                    i, attempt = broken[0]
                    settle(i, attempt, CRASHED, broken_exc,
                           tb="worker process died before the task returned\n")
                else:
                    suspects.extend(sorted(broken))
                _kill_executor(ex)
                ex = None

        # deliver terminal failures (on_outcome already saw every OK)
        if on_outcome is not None:
            for out in outcomes:
                if out.status not in (OK, INTERRUPTED):
                    on_outcome(out)
        return outcomes
    except KeyboardInterrupt:
        _kill_executor(ex)
        ex = None
        return outcomes
    finally:
        if ex is not None:
            ex.shutdown(wait=True, cancel_futures=True)
