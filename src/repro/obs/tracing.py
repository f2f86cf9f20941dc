"""Structured span tracer with Chrome trace-event export.

One process-wide tracer records *spans* — named, nested intervals on
the monotonic clock with per-span attributes — across every subsystem
(kernel dispatch, memo misses, trace replay, experiments, sanitizer,
fault campaigns).  The API is a context manager / decorator pair::

    from repro import obs

    with obs.span("experiment.fig17", quick=True):
        ...

    @obs.traced("kernel.spmm")
    def spmm(...): ...

Disabled (the default) the tracer is a near-zero-overhead no-op:
``span()`` returns a shared singleton whose ``__enter__``/``__exit__``
do nothing — no clock reads, no allocation beyond the call itself.
Enable with ``REPRO_TRACE=1``, :func:`enable`, or the surfaces built
on them (``repro-experiments --trace-out``, ``python -m repro.cli
obs``).

Process-pool awareness: spans are plain dicts.  A worker records
normally, :func:`drain` pops its completed spans, they travel back to
the parent inside the task result (through
:class:`~repro.experiments.pool.TaskOutcome`), and :func:`ingest`
stitches them into the parent's timeline keeping the worker's
pid/tid, so the exported Chrome trace shows every process as its own
track.

Export targets:

* :func:`export_chrome_trace` — ``chrome://tracing`` / Perfetto
  "trace event" JSON (``ph:"X"`` complete events, microsecond
  timestamps, ``M`` metadata rows naming each process/thread).
* :func:`render_tree` — a human summary of the span forest.
* :func:`slowest_table` — rows for the top-N slowest spans.

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase
``<subsystem>.<operation>``, e.g. ``experiment.fig17``,
``memo.miss.stats``, ``trace.replay``, ``kernel.spmm``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .. import envgates

__all__ = [
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "reset",
    "span",
    "traced",
    "drain",
    "ingest",
    "completed_spans",
    "export_chrome_trace",
    "chrome_trace_events",
    "validate_chrome_trace",
    "render_tree",
    "slowest_table",
]


_enabled_override: Optional[bool] = None
_lock = threading.Lock()
#: completed spans, each a plain dict (see ``_Span.finish``)
_completed: List[Dict[str, Any]] = []
_local = threading.local()
#: monotonically increasing span ids (process-local; uniqueness across
#: processes comes from the (pid, id) pair)
_next_id = 0


def enabled() -> bool:
    """Whether span recording is active (override > env > default off)."""
    if _enabled_override is not None:
        return _enabled_override
    return envgates.flag("REPRO_TRACE")


def set_enabled(flag: Optional[bool]) -> Optional[bool]:
    """Force on (True), off (False), or defer to ``REPRO_TRACE`` (None);
    returns the previous override, for the caller to restore."""
    global _enabled_override
    previous, _enabled_override = _enabled_override, flag
    return previous


def enable() -> None:
    """Force tracing on regardless of ``REPRO_TRACE``."""
    set_enabled(True)


def disable() -> None:
    """Force tracing off regardless of ``REPRO_TRACE``."""
    set_enabled(False)


def reset() -> None:
    """Drop every recorded span (the enable state is untouched)."""
    global _next_id
    with _lock:
        _completed.clear()
        _next_id = 0
    _local.stack = []


def _stack() -> List[int]:
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


class _NoopSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    """A live span; becomes a plain dict in ``_completed`` on exit."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t0", "tid")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        global _next_id
        self.name = name
        self.attrs = attrs
        with _lock:
            _next_id += 1
            self.span_id = _next_id
        stack = _stack()
        self.parent_id = stack[-1] if stack else 0
        stack.append(self.span_id)
        self.tid = threading.get_ident()
        self.t0 = time.perf_counter_ns()

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes on the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter_ns()
        stack = _stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        rec = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": os.getpid(),
            "tid": self.tid,
            "ts_ns": self.t0,
            "dur_ns": t1 - self.t0,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            rec["attrs"] = dict(self.attrs, error=exc_type.__name__)
        with _lock:
            _completed.append(rec)


def span(name: str, **attrs):
    """Context manager recording one span (no-op singleton when
    tracing is disabled — safe on hot paths)."""
    if not enabled():
        return _NOOP
    return _Span(name, attrs)


def traced(name: Optional[str] = None, **attrs) -> Callable:
    """Decorator form of :func:`span`; defaults to the function name.

    Raises :class:`TypeError` when applied over a memoised function (one
    carrying ``__memo_region__``): the span would time cache hits too.
    Put ``@traced`` inside the memo decorator, where the span times the
    compute of a miss only."""

    def deco(fn):
        label = name or fn.__qualname__
        if getattr(fn, "__memo_region__", None) is not None:
            raise TypeError(
                f"@traced({label!r}) wraps {fn.__qualname__}, memoised in the "
                f"{fn.__memo_region__!r} region: put the span inside the memo "
                "decorator")

        def wrapper(*args, **kwargs):
            if not enabled():
                return fn(*args, **kwargs)
            with _Span(label, dict(attrs)):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__obs_traced__ = True
        return wrapper

    return deco


def completed_spans() -> List[Dict[str, Any]]:
    """A copy of the completed-span list (records are shared, do not
    mutate)."""
    with _lock:
        return list(_completed)


def drain() -> List[Dict[str, Any]]:
    """Pop and return every completed span.

    The worker half of pool stitching: a worker drains after each task
    and ships the spans home inside the task result, so each span ends
    up in exactly one timeline.
    """
    with _lock:
        out = list(_completed)
        _completed.clear()
    return out


def ingest(spans: List[Dict[str, Any]]) -> None:
    """Merge spans shipped from another process (or drained earlier)
    back into this tracer's timeline, keeping their pid/tid."""
    if not spans:
        return
    with _lock:
        _completed.extend(spans)


# --------------------------------------------------------------------- #
# Chrome trace-event export
# --------------------------------------------------------------------- #
def chrome_trace_events(spans: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    """Spans as Chrome trace-event dicts (``ph:"X"`` + ``M`` metadata).

    Timestamps are microseconds on the shared ``perf_counter`` epoch;
    worker processes inherit the parent's clock on fork, and even under
    spawn the relative layout within each process stays correct.
    """
    spans = completed_spans() if spans is None else spans
    events: List[Dict[str, Any]] = []
    seen_procs: Dict[int, None] = {}
    seen_threads: Dict[tuple, None] = {}
    # full deterministic key: concurrent spans across processes can share
    # a ts_ns, and a stable event order is what makes exported traces
    # (and the --smoke output built on them) diffable across runs
    for s in sorted(spans, key=lambda s: (s["ts_ns"], s["pid"], s["tid"], s["id"])):
        pid, tid = s["pid"], s["tid"]
        if pid not in seen_procs:
            seen_procs[pid] = None
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            })
        if (pid, tid) not in seen_threads:
            seen_threads[(pid, tid)] = None
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"thread {tid}"},
            })
        args = {k: v for k, v in s["attrs"].items()}
        args["span_id"] = s["id"]
        if s["parent"]:
            args["parent_id"] = s["parent"]
        events.append({
            "name": s["name"],
            "ph": "X",
            "ts": s["ts_ns"] / 1000.0,
            "dur": s["dur_ns"] / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return events


def export_chrome_trace(path, spans: Optional[List[Dict[str, Any]]] = None) -> None:
    """Write ``chrome://tracing``/Perfetto-loadable JSON to ``path``."""
    doc = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def validate_chrome_trace(doc: Any) -> List[str]:
    """Problems that would stop ``chrome://tracing`` loading ``doc``.

    Checks the JSON-object trace format: a ``traceEvents`` list whose
    entries carry ``name``/``ph``/``pid``/``tid``, with numeric
    ``ts``/``dur >= 0`` on ``X`` events and an ``args.name`` on ``M``
    metadata.  Returns an empty list for a valid document.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be a JSON object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                problems.append(f"{where}: missing {field!r}")
        ph = ev.get("ph")
        if ph == "X":
            for field in ("ts", "dur"):
                v = ev.get(field)
                if not isinstance(v, (int, float)):
                    problems.append(f"{where}: {field!r} must be numeric, got {v!r}")
                elif field == "dur" and v < 0:
                    problems.append(f"{where}: negative dur {v!r}")
            if "args" in ev and not isinstance(ev["args"], dict):
                problems.append(f"{where}: args must be an object")
        elif ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata event needs args.name")
        elif not isinstance(ph, str) or len(ph) != 1:
            problems.append(f"{where}: bad phase {ph!r}")
    return problems


# --------------------------------------------------------------------- #
# human summaries
# --------------------------------------------------------------------- #
def _forest(spans: List[Dict[str, Any]]):
    """(roots, children) of the span forest; cross-process parents that
    never shipped resolve to roots."""
    by_id = {(s["pid"], s["id"]): s for s in spans}
    children: Dict[tuple, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for s in sorted(spans, key=lambda s: (s["ts_ns"], s["pid"], s["tid"], s["id"])):
        pkey = (s["pid"], s["parent"])
        if s["parent"] and pkey in by_id:
            children.setdefault(pkey, []).append(s)
        else:
            roots.append(s)
    return roots, children


def render_tree(spans: Optional[List[Dict[str, Any]]] = None) -> str:
    """Indented tree of the span forest with durations (ms)."""
    spans = completed_spans() if spans is None else spans
    if not spans:
        return "(no spans recorded)"
    roots, children = _forest(spans)
    lines: List[str] = []

    def walk(s: Dict[str, Any], depth: int) -> None:
        ms = s["dur_ns"] / 1e6
        attrs = "".join(
            f" {k}={v}" for k, v in s["attrs"].items() if k != "error"
        )
        err = " [ERROR]" if "error" in s["attrs"] else ""
        lines.append(f"{'  ' * depth}{s['name']}  {ms:.3f} ms  (pid {s['pid']}){attrs}{err}")
        for c in children.get((s["pid"], s["id"]), []):
            walk(c, depth + 1)

    for r in roots:
        walk(r, 0)
    return "\n".join(lines)


def slowest_table(n: int = 10, spans: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, object]]:
    """Rows for the top-``n`` slowest spans (self time excluded — these
    are whole-span durations, what a profiler's 'total time' shows)."""
    spans = completed_spans() if spans is None else spans
    # duration ties (common under coarse clocks / parallel shards) break
    # on name then pid/tid/id so the table is stable run to run
    top = sorted(spans,
                 key=lambda s: (-s["dur_ns"], s["name"], s["pid"], s["tid"],
                                s["id"]))[:n]
    return [
        {
            "Span": s["name"],
            "ms": round(s["dur_ns"] / 1e6, 3),
            "pid": s["pid"],
            "Attrs": ", ".join(f"{k}={v}" for k, v in s["attrs"].items()) or "-",
        }
        for s in top
    ]
