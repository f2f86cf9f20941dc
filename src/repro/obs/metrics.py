"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs.tracing` is the timeline half).  Subsystems push
named instruments::

    from repro.obs import metrics

    metrics.counter_add("trace.replay.batches")
    metrics.gauge_set("pool.workers", 4)
    metrics.observe("hmma.batch_size", 128)

Instruments are no-ops while observability is disabled (one boolean
check per call — safe on hot paths).  Enabled, they accumulate into a
process-wide store that :func:`snapshot` renders as plain JSON:
counters and gauges as scalars, histograms as
``{count, sum, min, max, mean}`` summaries.

Naming convention (``docs/OBSERVABILITY.md``): dotted lowercase
``<subsystem>.<thing>``; counters count events, gauges hold last
values, histograms hold distributions.

Pool stitching mirrors the tracer: a worker :func:`drain`\\ s its
registry after each task, the plain-dict payload rides home in the
task result, and the parent :func:`merge`\\ s it — counters add,
histograms combine, gauges last-write-wins — so ``metrics.json`` is
one registry no matter how many processes contributed.

:func:`snapshot` also emits a ``derived`` section with the headline
rates the acceptance dashboards read (memo hit rate per region,
sector-cache hit rates) — always present, zero-valued when the run
never touched the subsystem, so consumers need no existence checks.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional

from . import tracing

__all__ = [
    "enabled",
    "counter_add",
    "gauge_set",
    "observe",
    "reset",
    "drain",
    "merge",
    "snapshot",
    "write_json",
    "counters",
    "gauges",
    "histograms",
]

_lock = threading.Lock()
_counters: Dict[str, float] = {}
_gauges: Dict[str, float] = {}
#: name -> [count, sum, min, max]
_hists: Dict[str, List[float]] = {}


def enabled() -> bool:
    """Metrics share the tracer's switch: one observability toggle."""
    return tracing.enabled()


def counter_add(name: str, n: float = 1.0) -> None:
    """Add ``n`` to a monotonically increasing counter."""
    if not tracing.enabled():
        return
    with _lock:
        _counters[name] = _counters.get(name, 0.0) + n


def gauge_set(name: str, value: float) -> None:
    """Set a last-value-wins gauge."""
    if not tracing.enabled():
        return
    with _lock:
        _gauges[name] = float(value)


def observe(name: str, value: float) -> None:
    """Record one observation into a histogram summary."""
    if not tracing.enabled():
        return
    v = float(value)
    with _lock:
        h = _hists.get(name)
        if h is None:
            _hists[name] = [1.0, v, v, v]
        else:
            h[0] += 1.0
            h[1] += v
            if v < h[2]:
                h[2] = v
            if v > h[3]:
                h[3] = v


def reset() -> None:
    """Drop every instrument."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _hists.clear()


def counters() -> Dict[str, float]:
    """A copy of every counter's running total, by name."""
    with _lock:
        return dict(_counters)


def gauges() -> Dict[str, float]:
    """A copy of every gauge's last set value, by name."""
    with _lock:
        return dict(_gauges)


def histograms() -> Dict[str, Dict[str, Any]]:
    """Every histogram's count/sum/min/max/mean."""
    with _lock:
        return {
            name: {"count": h[0], "sum": h[1], "min": h[2], "max": h[3],
                   "mean": h[1] / h[0] if h[0] else 0.0}
            for name, h in _hists.items()
        }


def drain() -> Dict[str, Any]:
    """Pop the registry into a plain-dict payload (worker -> parent)."""
    with _lock:
        out = {
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "hists": {k: list(v) for k, v in _hists.items()},
        }
        _counters.clear()
        _gauges.clear()
        _hists.clear()
    return out


def merge(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a drained payload in: counters add, histograms combine,
    gauges last-write-wins."""
    if not payload:
        return
    with _lock:
        for k, v in payload.get("counters", {}).items():
            _counters[k] = _counters.get(k, 0.0) + v
        for k, v in payload.get("gauges", {}).items():
            _gauges[k] = v
        for k, h in payload.get("hists", {}).items():
            mine = _hists.get(k)
            if mine is None:
                _hists[k] = list(h)
            else:
                mine[0] += h[0]
                mine[1] += h[1]
                mine[2] = min(mine[2], h[2])
                mine[3] = max(mine[3], h[3])


# --------------------------------------------------------------------- #
# derived views
# --------------------------------------------------------------------- #
#: memo regions always reported, even when untouched
_MEMO_REGIONS = ("stats", "latency", "trace", "suite", "problem", "format", "plan")
#: cache levels always reported, even when no replay ran
_CACHE_LEVELS = ("l1", "l2")


def _rate(hits: float, total: float) -> float:
    return round(hits / total, 4) if total else 0.0


def memo_table(counter_map: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, float]]:
    """``{region: {hits, misses, hit_rate, shared_*}}`` from the
    registry's ``memo.<region>.hits/misses`` (process-local tier) and
    ``memo.shared.<region>.hits/misses`` (cross-process file-backed
    tier) counters — every region present, both tiers always reported
    (zeros when the shared tier is off)."""
    c = counters() if counter_map is None else counter_map
    regions = set(_MEMO_REGIONS)
    for name in c:
        if not name.startswith("memo."):
            continue
        if name.count(".") == 2:
            regions.add(name.split(".")[1])
        elif name.startswith("memo.shared.") and name.count(".") == 3:
            regions.add(name.split(".")[2])
    out: Dict[str, Dict[str, float]] = {}
    for region in sorted(regions):
        hits = c.get(f"memo.{region}.hits", 0.0)
        misses = c.get(f"memo.{region}.misses", 0.0)
        shared_hits = c.get(f"memo.shared.{region}.hits", 0.0)
        shared_misses = c.get(f"memo.shared.{region}.misses", 0.0)
        out[region] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": _rate(hits, hits + misses),
            "shared_hits": shared_hits,
            "shared_misses": shared_misses,
            "shared_hit_rate": _rate(shared_hits, shared_hits + shared_misses),
        }
    return out


def cache_table(counter_map: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, float]]:
    """``{level: {sector_accesses, sector_hits, hit_rate}}`` from the
    ``cache.<level>.*`` counters (both levels always present)."""
    c = counters() if counter_map is None else counter_map
    out: Dict[str, Dict[str, float]] = {}
    for level in _CACHE_LEVELS:
        acc = c.get(f"cache.{level}.sector_accesses", 0.0)
        hits = c.get(f"cache.{level}.sector_hits", 0.0)
        out[level] = {
            "sector_accesses": acc,
            "sector_hits": hits,
            "hit_rate": _rate(hits, acc),
        }
    return out


def snapshot() -> Dict[str, Any]:
    """The registry as a JSON-ready document (``metrics.json``)."""
    c = counters()
    memo = memo_table(c)
    total_hits = sum(r["hits"] for r in memo.values())
    total = total_hits + sum(r["misses"] for r in memo.values())
    shared_hits = sum(r["shared_hits"] for r in memo.values())
    shared_total = shared_hits + sum(r["shared_misses"] for r in memo.values())
    return {
        "counters": {k: c[k] for k in sorted(c)},
        "gauges": {k: v for k, v in sorted(gauges().items())},
        "histograms": {k: v for k, v in sorted(histograms().items())},
        "memo": memo,
        "cache": cache_table(c),
        "derived": {
            "memo.hit_rate": _rate(total_hits, total),
            # compiled execution plans: codegen amortisation at a glance
            "memo.plan.hit_rate": memo["plan"]["hit_rate"],
            # cross-process tier: how often an L1 miss was saved by a
            # sibling process's published entry
            "memo.shared.hit_rate": _rate(shared_hits, shared_total),
        },
    }


def write_json(path) -> Dict[str, Any]:
    """Write :func:`snapshot` to ``path`` and return it."""
    snap = snapshot()
    with open(path, "w") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snap
