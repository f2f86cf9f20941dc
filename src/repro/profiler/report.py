"""Rendering: profile tables, roofline summaries, and diff views.

Everything renders through :func:`format_table`, the plain-text table
helper the experiment scripts also use, with ``None`` counters shown as
``n/a`` — the profiler never invents a zero for a counter a kernel does
not have.  :func:`guidelines_table` is the paper's Table 2/3 view of a
:class:`KernelProfile`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .counters import KernelProfile

__all__ = [
    "format_table",
    "fmt_counter",
    "guidelines_table",
    "profile_table",
    "bottleneck_lines",
    "roofline_summary",
    "diff_kernels",
]


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Plain-text table renderer used by the experiment scripts."""
    if not rows:
        return "(empty)"
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    lines = [" | ".join(str(c).ljust(widths[c]) for c in cols)]
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def fmt_counter(value: Optional[float], spec: str = ".2f") -> str:
    """Render a profile counter; ``None`` (counter not applicable to
    this kernel) becomes ``n/a`` rather than a misleading ``0.0``."""
    return "n/a" if value is None else format(value, spec)


def guidelines_table(profiles: Sequence[KernelProfile]) -> List[Dict[str, object]]:
    """Rows of the Table 2/3 layout: the five guidelines per kernel."""
    return [
        {
            "Kernel": p.name,
            "No Instruction": f"{p.no_instruction_pct:.1f}%",
            "# Thread Block": p.thread_blocks,
            "Wait": f"{p.wait_pct:.1f}%",
            "Short Scoreboard": f"{p.short_scoreboard_pct:.1f}%",
            "Sectors/Req": fmt_counter(p.sectors_per_request),
        }
        for p in profiles
    ]


def profile_table(profiles: Dict[str, KernelProfile]) -> str:
    """The main per-kernel counter table, registry order."""
    rows = []
    for name, p in profiles.items():
        rows.append({
            "Kernel": name,
            "Bound": p.classification,
            "Roofline": p.roofline_bound,
            "Limiter": p.limiter,
            "Time us": fmt_counter(p.time_us, ".1f"),
            "AI": fmt_counter(p.arithmetic_intensity, ".2f"),
            "TFLOP/s": fmt_counter(p.achieved_tflops, ".3f"),
            "Peak%": fmt_counter(p.compute_throughput_pct, ".1f"),
            "DRAM GB/s": fmt_counter(p.achieved_dram_gbs, ".1f"),
            "DRAM%": fmt_counter(p.dram_utilization_pct, ".1f"),
            "L2%": fmt_counter(p.l2_utilization_pct, ".1f"),
            "Sec/Req": fmt_counter(p.sectors_per_request, ".1f"),
            "L1 hit": fmt_counter(p.l1_sector_hit_rate, ".3f"),
            "HMMA eff": fmt_counter(p.hmma_issue_efficiency, ".3f"),
            "Occ%": fmt_counter(p.occupancy_pct, ".1f"),
        })
    return format_table(rows)


def bottleneck_lines(profiles: Dict[str, KernelProfile]) -> List[str]:
    """Ranked "what to fix first" lines, one block per kernel."""
    lines: List[str] = []
    for name, p in profiles.items():
        lines.append(f"{name} [{p.classification}]")
        for i, row in enumerate(p.bottlenecks, 1):
            lines.append(f"  {i}. {row['bound']} "
                         f"({100.0 * float(row['share']):.0f}% of cycles): "
                         f"{row['advice']}")
    return lines


def roofline_summary(doc: Dict[str, object]) -> str:
    """One-screen text summary of a roofline document."""
    ceil = doc["ceilings"]
    lines = [
        f"device: {doc['device']}  "
        f"(tensor {ceil['tensor_tflops']} / fp16 {ceil['fp16_tflops']} / "
        f"fp32 {ceil['fp32_tflops']} TFLOP/s, DRAM {ceil['dram_gbs']} GB/s)",
    ]
    rows = []
    for pt in doc["points"]:
        side = ("left of ridge (memory side)"
                if pt["arithmetic_intensity"] < pt["ridge_flops_per_byte"]
                else "right of ridge (compute side)")
        rows.append({
            "Kernel": pt["kernel"],
            "AI": f"{pt['arithmetic_intensity']:.2f}",
            "Ridge": f"{pt['ridge_flops_per_byte']:.1f}",
            "Position": side,
            "Classified": pt["classification"],
        })
    lines.append(format_table(rows))
    return "\n".join(lines)


def _counter_diff(a: Dict[str, object], b: Dict[str, object],
                  label_a: str, label_b: str) -> List[Dict[str, object]]:
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb and (key in a) == (key in b):
            continue
        delta = ""
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            delta = f"{100.0 * (vb - va) / va:+.1f}%"
        rows.append({"Counter": key, label_a: fmt_counter_any(va),
                     label_b: fmt_counter_any(vb), "Delta": delta})
    return rows


def fmt_counter_any(value: object) -> str:
    """Render any counter value (string, number or missing) for a diff."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return format(value, ".4g")
    return str(value)


def diff_kernels(a: KernelProfile, b: KernelProfile) -> str:
    """Side-by-side counter diff of two kernel profiles."""
    rows = _counter_diff(a.counters(), b.counters(), a.name, b.name)
    if not rows:
        return "(profiles identical)"
    return format_table(rows)

