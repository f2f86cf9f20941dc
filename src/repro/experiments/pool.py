"""Crash-isolating process fan-out for the experiment sweeps.

:func:`resilient_map` runs ``run_all``'s experiments, one per task, and
resolves each to a :class:`TaskOutcome`, so one failed experiment cannot
discard the finished ones.  ``jobs > 1`` starts ``min(jobs, len(items))``
workers that live for the whole sweep, each keeping its memo warm, and
feeds each one task at a time over its own pipe: a worker that dies
convicts exactly the task it holds, and a fresh worker takes the rest.
Experiments seed their own generators, so no result depends on the
worker.  ``jobs <= 1`` runs the tasks in the calling process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing

__all__ = ["TaskOutcome", "resilient_map", "OK", "ERROR", "CRASHED", "INTERRUPTED"]

OK = "ok"                    # fn returned; ``result`` holds the value
ERROR = "error"              # fn raised; ``error``/``traceback`` describe it
CRASHED = "crashed"          # the worker process died holding the task
INTERRUPTED = "interrupted"  # sweep stopped (KeyboardInterrupt) before it settled

_STATUS_METRIC = {ERROR: "pool.errors", CRASHED: "pool.crashes"}  # see docs/OBSERVABILITY.md


@dataclass
class TaskOutcome:
    """Structured outcome of one task of a resilient fan-out."""

    index: int                  # position in the input sequence
    status: str = INTERRUPTED
    result: Any = None          # fn's return value when ``status == OK``
    error: str = ""             # ``repr`` of the exception, or the exit code
    traceback: str = ""         # formatted traceback of the failure

    @property
    def ok(self) -> bool:
        return self.status == OK


def _settle(out: TaskOutcome, status: str, value: Any, tb: str = "") -> None:
    out.status = status
    if status == OK:
        out.result = value
        return
    out.error, out.traceback = value, tb
    obs_metrics.counter_add(_STATUS_METRIC[status])


def _worker(conn: Connection, parent_end: Connection, fn: Callable) -> None:
    """Run each task received until ``None`` or the parent's death (EOF).
    Drop the metrics and finished spans a fork copied from the parent, so
    only this worker's own records ship home; Ctrl-C is the parent's."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs_metrics.reset()
    obs_tracing.drain()
    with contextlib.suppress(EOFError, OSError):
        for item in iter(conn.recv, None):
            try:
                conn.send((OK, fn(item)))
            except KeyboardInterrupt as exc:
                conn.send((INTERRUPTED, repr(exc)))
            except Exception as exc:
                conn.send((ERROR, repr(exc), traceback.format_exc()))


def _start(fn: Callable) -> Tuple[multiprocessing.Process, Connection]:
    conn, child = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_worker, args=(child, conn, fn), daemon=True)
    proc.start()
    child.close()  # each end now lives in one process: a death reads as EOF
    return proc, conn


def resilient_map(
    fn: Callable,
    items: Iterable,
    jobs: int = 1,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Map ``fn`` over ``items``: one :class:`TaskOutcome` per item, in order.

    A raised exception ends its task :data:`ERROR` (repr and traceback
    kept); with ``jobs > 1`` (``fn`` and items picklable) a dead worker
    ends its task :data:`CRASHED` (exit code in ``error``).  A
    ``KeyboardInterrupt`` terminates the workers; finished tasks keep their
    outcomes, the rest stay :data:`INTERRUPTED`.  ``on_outcome`` sees every
    other outcome as its task settles, so artifacts persist at once.
    """
    work = list(items)
    outcomes = [TaskOutcome(index=i) for i in range(len(work))]
    if not work:
        return outcomes
    obs_metrics.counter_add("pool.tasks", len(work))
    cap = max(1, min(jobs, len(work)))
    obs_metrics.gauge_set("pool.workers", cap)
    notify = on_outcome or (lambda out: None)
    if jobs <= 1:
        for item, out in zip(work, outcomes):
            try:
                _settle(out, OK, fn(item))
            except KeyboardInterrupt:
                break
            except Exception as exc:
                _settle(out, ERROR, repr(exc), traceback.format_exc())
            notify(out)
        return outcomes

    idle, busy, nxt = [], {}, 0  # [(proc, conn)], {conn: (proc, task index)}
    try:
        while nxt < len(work) or busy:
            while nxt < len(work) and len(busy) < cap:
                proc, conn = idle.pop() if idle else _start(fn)
                with contextlib.suppress(OSError):  # a dead worker is convicted below
                    conn.send(work[nxt])
                busy[conn] = (proc, nxt)
                nxt += 1
            ready = set(wait([*busy, *(proc.sentinel for proc, _ in busy.values())]))
            for conn, (proc, i) in list(busy.items()):
                if conn not in ready and proc.sentinel not in ready:
                    continue
                del busy[conn]
                try:  # no reply: the worker died instead
                    reply = conn.recv() if conn.poll() else None
                except (EOFError, OSError):
                    reply = None
                if reply is None:
                    proc.join()
                    _settle(outcomes[i], CRASHED, f"worker exited with code {proc.exitcode}",
                            "worker process died before the task returned\n")
                else:
                    idle.append((proc, conn))
                    if reply[0] == INTERRUPTED:
                        raise KeyboardInterrupt
                    _settle(outcomes[i], *reply)
                notify(outcomes[i])
    except KeyboardInterrupt:
        pass
    finally:
        for proc, conn in idle:
            with contextlib.suppress(OSError):
                conn.send(None)
        for conn, (proc, _) in busy.items():
            proc.terminate()
            idle.append((proc, conn))
        for proc, conn in idle:
            proc.join()
            conn.close()
    return outcomes
