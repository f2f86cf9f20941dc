"""Reports over a finished simulation: percentiles, goodput, timeline.

Three consumers share this module:

* ``python -m repro.cli serve`` renders :func:`format_report` (the
  p50/p99/p99.9 + outcome table) and, with ``--sweep``, the
  goodput-vs-offered-load table of :func:`load_sweep`;
* ``--trace-out`` exports :func:`timeline_spans` through
  :func:`repro.obs.tracing.export_chrome_trace` — worker lanes show
  batch executions (hedges, retries, corrupt reruns), tenant lanes
  show per-request lifecycles;
* the ``serving-overload`` fault campaign reads :func:`percentiles`
  and the typed outcome counts to score detection and recovery.

Timeline export is capped (``REPRO_SERVING_TIMELINE``, default
20000 events) so a million-request run still writes a trace a browser
can open; the cap keeps the *earliest* events, and the truncation is
reported, never silent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import envgates
from ..profiler.report import format_table
from .simulator import COMPLETED, OUTCOMES, ServingResult

__all__ = [
    "percentiles",
    "report",
    "format_report",
    "load_sweep",
    "format_sweep",
    "timeline_spans",
    "profile_summary",
]

#: default cap on exported timeline events (override with the
#: REPRO_SERVING_TIMELINE gate)
DEFAULT_TIMELINE_CAP = 20_000

_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p99.9", 0.999))


def percentiles(lat_us: np.ndarray) -> Dict[str, float]:
    """``{p50, p99, p99.9}`` of a latency sample, in microseconds."""
    if lat_us.size == 0:
        return {name: 0.0 for name, _ in _QUANTILES}
    return {name: float(np.quantile(lat_us, q)) for name, q in _QUANTILES}


def report(result: ServingResult) -> Dict[str, Any]:
    """The run summary as a JSON-ready document."""
    wl = result.workload
    lat = result.completed_latencies_us()
    counts = result.outcome_counts()
    offered_tok = wl.offered_tokens
    good_tok = result.goodput_tokens()
    per_tenant = []
    for ti, t in enumerate(wl.scenario.tenants):
        m = (result.outcome == COMPLETED) & (wl.tenant == ti)
        tl = result.finish_us[m] - wl.arrival_us[m]
        p = percentiles(tl)
        per_tenant.append({
            "tenant": t.name,
            "slo_us": t.slo_us,
            "completed": int(m.sum()),
            "offered": int((wl.tenant == ti).sum()),
            **p,
            "p99_slo_ratio": round(p["p99"] / t.slo_us, 4) if t.slo_us else 0.0,
        })
    return {
        "scenario": result.scenario.name,
        "seed": result.seed,
        "requests": result.n_requests,
        "load": result.scenario.load,
        "capacity_tokens_per_us": round(result.capacity_tokens_per_us, 4),
        "duration_us": round(result.end_time_us, 1),
        "outcomes": counts,
        "offered_tokens": offered_tok,
        "goodput_tokens": good_tok,
        "goodput_fraction": round(good_tok / offered_tok, 4) if offered_tok else 0.0,
        "latency_us": percentiles(lat),
        "per_tenant": per_tenant,
        "counters": result.counters,
        "final_level": result.level_trace[-1][1] if result.level_trace else 0,
        "ledger_digest": result.ledger_digest(),
    }


def profile_summary(result: ServingResult) -> Dict[str, Any]:
    """Per-tenant SLO attainment + degradation-ladder occupancy.

    ``per_tenant`` rows carry the fraction of each tenant's *offered* requests that completed within
    its SLO, and ``ladder_occupancy`` maps degradation level to the
    fraction of the run spent at that level (``level_trace`` walked to
    ``end_time_us``; the simulator always seeds level 0 at t=0).
    """
    wl = result.workload
    per_tenant = []
    for ti, t in enumerate(wl.scenario.tenants):
        offered = (wl.tenant == ti)
        done = (result.outcome == COMPLETED) & offered
        in_slo = done & (result.finish_us - wl.arrival_us <= t.slo_us)
        n_off = int(offered.sum())
        per_tenant.append({
            "tenant": t.name,
            "slo_us": t.slo_us,
            "offered": n_off,
            "completed": int(done.sum()),
            "within_slo": int(in_slo.sum()),
            "slo_attainment": round(int(in_slo.sum()) / n_off, 4) if n_off else 0.0,
        })
    occupancy: Dict[str, float] = {}
    end = max(result.end_time_us, 1e-9)
    trace = result.level_trace or [(0.0, 0)]
    for i, (t_us, level) in enumerate(trace):
        nxt = trace[i + 1][0] if i + 1 < len(trace) else result.end_time_us
        occupancy[str(level)] = occupancy.get(str(level), 0.0) + max(0.0, nxt - t_us) / end
    return {
        "per_tenant": per_tenant,
        "ladder_occupancy": {k: round(v, 4) for k, v in sorted(occupancy.items())},
    }


def format_report(result: ServingResult) -> str:
    """Human rendering of :func:`report` (outcome + per-tenant tables)."""
    doc = report(result)
    lines = [
        f"scenario {doc['scenario']} · load {doc['load']}x · "
        f"{doc['requests']} requests · seed {doc['seed']}",
        f"goodput {doc['goodput_tokens']}/{doc['offered_tokens']} tokens "
        f"({doc['goodput_fraction']:.1%}) · final degradation level "
        f"{doc['final_level']} · ledger {doc['ledger_digest'][:12]}",
        "",
        format_table([
            {"outcome": name, "requests": doc["outcomes"][name]}
            for name in OUTCOMES if doc["outcomes"][name]
        ]),
        "",
        format_table([
            {
                "tenant": row["tenant"],
                "completed": f"{row['completed']}/{row['offered']}",
                "p50_ms": f"{row['p50'] / 1000:.2f}",
                "p99_ms": f"{row['p99'] / 1000:.2f}",
                "p99.9_ms": f"{row['p99.9'] / 1000:.2f}",
                "slo_ms": f"{row['slo_us'] / 1000:.0f}",
                "p99/slo": f"{row['p99_slo_ratio']:.2f}",
            }
            for row in doc["per_tenant"]
        ]),
    ]
    return "\n".join(lines)


#: offered-load multiples the goodput sweep visits
SWEEP_LOADS = (0.5, 1.0, 1.5, 2.0, 3.0)


def load_sweep(scenario, n_requests: int, seed: int,
               loads: Tuple[float, ...] = SWEEP_LOADS) -> List[Dict[str, Any]]:
    """Goodput-vs-offered-load rows: the same scenario re-simulated at
    each load multiple (same seed — load is the only variable)."""
    from .simulator import simulate
    rows = []
    for load in loads:
        res = simulate(scenario.with_load(load), n_requests, seed)
        doc = report(res)
        rows.append({
            "load": load,
            "goodput_fraction": doc["goodput_fraction"],
            "goodput_tokens_per_us": round(
                doc["goodput_tokens"] / doc["duration_us"], 3)
            if doc["duration_us"] else 0.0,
            "p99_ms": round(doc["latency_us"]["p99"] / 1000, 2),
            "shed": doc["outcomes"]["shed-admission"]
            + doc["outcomes"]["shed-queue"],
            "expired": doc["outcomes"]["expired"],
            "final_level": doc["final_level"],
        })
    return rows


def format_sweep(rows: List[Dict[str, Any]]) -> str:
    """Human rendering of :func:`load_sweep` rows."""
    return format_table(rows)


def _timeline_cap() -> int:
    raw = envgates.raw("REPRO_SERVING_TIMELINE")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_TIMELINE_CAP


def timeline_spans(result: ServingResult,
                   cap: Optional[int] = None) -> List[Dict[str, Any]]:
    """The run as tracer-shaped span dicts for Chrome-trace export.

    Worker lanes (pid 1) carry batch executions; tenant lanes (pid 2)
    carry request lifecycles (arrival to terminal).  Virtual
    microseconds map to trace nanoseconds 1:1000.
    """
    if cap is None:
        cap = _timeline_cap()
    spans: List[Dict[str, Any]] = []
    sid = 0
    for (worker, t0, t1, bid, cfg, tokens, variant, corrupt,
         superseded) in result.exec_log:
        sid += 1
        spans.append({
            "name": f"batch.{variant}", "id": sid, "parent": 0,
            "pid": 1, "tid": worker,
            "ts_ns": int(t0 * 1000), "dur_ns": max(1, int((t1 - t0) * 1000)),
            "attrs": {"batch": bid, "config": cfg, "tokens": tokens,
                      "corrupt": corrupt, "superseded": superseded},
        })
        if len(spans) >= cap:
            return spans
    wl = result.workload
    names = wl.scenario.tenants
    for r in range(wl.n):
        sid += 1
        t0 = float(wl.arrival_us[r])
        t1 = float(result.finish_us[r])
        spans.append({
            "name": f"request.{OUTCOMES[result.outcome[r]]}", "id": sid,
            "parent": 0, "pid": 2, "tid": int(wl.tenant[r]),
            "ts_ns": int(t0 * 1000),
            "dur_ns": max(1, int((t1 - t0) * 1000)),
            "attrs": {"tenant": names[int(wl.tenant[r])].name,
                      "tokens": int(wl.tokens[r]),
                      "attempts": int(result.attempts[r])},
        })
        if len(spans) >= cap:
            break
    return spans
