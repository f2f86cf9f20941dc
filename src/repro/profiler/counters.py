"""Counter derivation: one kernel launch -> an Nsight-analog profile.

:func:`derive_profile` fuses the three evidence sources the simulator
already produces —

* the kernel's authored :class:`~repro.perfmodel.events.KernelStats`
  (instruction mix, analytic byte flows, launch/resources),
* the interval model's resolved :class:`~repro.perfmodel.latency.
  LatencyEstimate` (time, per-bound cycles, limiter, occupancy),
* an optional trace-replay :class:`~repro.perfmodel.trace.TraceResult`
  (measured L1 sector hit rate from the sector-cache simulator)

— into one :class:`KernelProfile` of derived counters: arithmetic
intensity, achieved vs peak FLOP/s and DRAM/L2 bandwidth against the
:mod:`repro.hardware` V100 ceilings, sector hit rates, HMMA issue
efficiency, roofline classification, and ranked bottleneck
attribution.  Counters a kernel genuinely lacks are ``None`` (rendered
``n/a``), never a misleading zero.

The same profile is the paper's Nsight view: Tables 1-3 read its stall
percentages, grid size and Sectors/Req, Figure 5 its pipe utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hardware.instructions import InstrClass
from ..perfmodel.events import KernelStats
from ..perfmodel.latency import LatencyModel
from ..perfmodel.trace import TraceResult
from .roofline import (
    attribution,
    classify,
    dominant_math_pipe,
    pipe_peak_tflops,
    ridge_point,
    roofline_bound,
)

__all__ = ["KernelProfile", "derive_profile"]


@dataclass
class KernelProfile:
    """Derived per-launch counters in Nsight Compute vocabulary.

    ``l1_sector_hit_rate`` comes from trace replay and is ``None`` for
    kernels without a registered sector stream; ``hmma_issue_efficiency``
    is ``None`` for kernels that issue no tensor-core instructions;
    ``sectors_per_request`` is ``None`` when no global requests exist.

    The stall percentages and ``pipe_utilization`` (busy fraction of
    each pipe, unrounded) feed the paper's Tables 1-3 and Figure 5;
    they stay out of :meth:`counters`.
    """

    name: str
    config: str
    classification: str            # compute | memory | latency
    roofline_bound: str            # compute | memory (two-ceiling model)
    limiter: str                   # raw interval-model bound name
    time_us: float
    cycles_per_sm: float
    flops: float
    achieved_tflops: float
    peak_tflops: float
    compute_pipe: str              # pipe the peak refers to
    compute_throughput_pct: float  # achieved / peak, %
    dram_bytes: float
    achieved_dram_gbs: float
    dram_utilization_pct: float
    l2_bytes: float
    achieved_l2_gbs: float
    l2_utilization_pct: float
    arithmetic_intensity: float    # FLOPs per DRAM byte
    arithmetic_intensity_l2: float
    ridge_flops_per_byte: float
    sectors_per_request: Optional[float]
    l1_sector_hit_rate: Optional[float]
    l2_sector_hit_rate: Optional[float]
    hmma_issue_efficiency: Optional[float]
    occupancy_pct: float
    thread_blocks: int
    no_instruction_pct: float
    wait_pct: float
    short_scoreboard_pct: float
    long_scoreboard_pct: float
    pipe_utilization: Dict[str, float]
    bottlenecks: List[Dict[str, object]] = field(default_factory=list)

    def counters(self) -> Dict[str, object]:
        """Flat, JSON-ready counter record (the baseline's per-kernel entry).

        Keys are sorted by construction; floats are already rounded by
        :func:`derive_profile`, so the record is bit-stable across
        identical runs.
        """
        return {
            "achieved_dram_gbs": self.achieved_dram_gbs,
            "achieved_l2_gbs": self.achieved_l2_gbs,
            "achieved_tflops": self.achieved_tflops,
            "arithmetic_intensity": self.arithmetic_intensity,
            "arithmetic_intensity_l2": self.arithmetic_intensity_l2,
            "classification": self.classification,
            "compute_pipe": self.compute_pipe,
            "compute_throughput_pct": self.compute_throughput_pct,
            "dram_bytes": self.dram_bytes,
            "dram_utilization_pct": self.dram_utilization_pct,
            "flops": self.flops,
            "hmma_issue_efficiency": self.hmma_issue_efficiency,
            "l1_sector_hit_rate": self.l1_sector_hit_rate,
            "l2_bytes": self.l2_bytes,
            "l2_sector_hit_rate": self.l2_sector_hit_rate,
            "l2_utilization_pct": self.l2_utilization_pct,
            "limiter": self.limiter,
            "occupancy_pct": self.occupancy_pct,
            "peak_tflops": self.peak_tflops,
            "ridge_flops_per_byte": self.ridge_flops_per_byte,
            "roofline_bound": self.roofline_bound,
            "sectors_per_request": self.sectors_per_request,
            "thread_blocks": self.thread_blocks,
            "time_us": self.time_us,
        }


def _round(x: float, digits: int = 4) -> float:
    return round(float(x), digits)


def derive_profile(
    stats: KernelStats,
    model: Optional[LatencyModel] = None,
    trace: Optional[TraceResult] = None,
    config: str = "",
    top: int = 3,
) -> KernelProfile:
    """Derive one :class:`KernelProfile` from a launch's evidence.

    ``trace`` supplies the measured L1 sector hit rate when the kernel
    has a registered sector stream; everything else is derived from the
    analytic stats and the interval model against ``model.spec``'s
    ceilings.
    """
    model = model or LatencyModel()
    spec = model.spec
    est = model.estimate(stats)
    gm = stats.global_mem
    time_s = est.time_us / 1e6

    dram_bytes = gm.bytes_dram_to_l2 + gm.local_bytes
    l2_bytes = gm.bytes_l2_to_l1 + gm.local_bytes
    achieved_dram_gbs = dram_bytes / time_s / 1e9 if time_s > 0 else 0.0
    achieved_l2_gbs = l2_bytes / time_s / 1e9 if time_s > 0 else 0.0

    pipe = dominant_math_pipe(stats)
    peak_tflops = pipe_peak_tflops(pipe, spec)
    achieved_tflops = stats.flops / time_s / 1e12 if time_s > 0 else 0.0

    cycles = max(1e-9, est.cycles_per_sm)
    pipe_util = {key.split(":", 1)[1]: min(1.0, b / cycles)
                 for key, b in est.bounds.items()
                 if key.startswith("pipe:") and not key.endswith("family")}
    hmma = stats.instructions.counts.get(InstrClass.HMMA, 0.0)
    hmma_eff: Optional[float] = None
    if hmma > 0:
        # fraction of the kernel's cycles the tensor pipe is actually
        # issuing HMMA steps: the Nsight "tensor pipe utilization" analog
        hmma_eff = _round(pipe_util.get("tensor", 0.0))

    l2_hit: Optional[float] = None
    if l2_bytes > 0:
        l2_hit = _round(max(0.0, min(1.0, 1.0 - dram_bytes / l2_bytes)))

    fr = est.stall_fractions
    return KernelProfile(
        name=stats.name,
        config=config,
        classification=classify(est.limiter),
        roofline_bound=roofline_bound(stats, model),
        limiter=est.limiter,
        time_us=_round(est.time_us, 3),
        cycles_per_sm=_round(est.cycles_per_sm, 1),
        flops=float(stats.flops),
        achieved_tflops=_round(achieved_tflops),
        peak_tflops=_round(peak_tflops, 2),
        compute_pipe=pipe,
        compute_throughput_pct=_round(100.0 * achieved_tflops / peak_tflops, 2),
        dram_bytes=_round(dram_bytes, 1),
        achieved_dram_gbs=_round(achieved_dram_gbs, 2),
        dram_utilization_pct=_round(100.0 * achieved_dram_gbs / spec.dram_bandwidth_gbs, 2),
        l2_bytes=_round(l2_bytes, 1),
        achieved_l2_gbs=_round(achieved_l2_gbs, 2),
        l2_utilization_pct=_round(100.0 * achieved_l2_gbs / spec.l2_bandwidth_gbs, 2),
        arithmetic_intensity=_round(stats.flops / dram_bytes if dram_bytes else 0.0),
        arithmetic_intensity_l2=_round(stats.flops / l2_bytes if l2_bytes else 0.0),
        ridge_flops_per_byte=_round(ridge_point(pipe, spec), 2),
        sectors_per_request=(_round(gm.sectors_per_request)
                             if gm.requests > 0 else None),
        l1_sector_hit_rate=(_round(trace.l1_hit_rate)
                            if trace is not None and trace.sector_accesses else None),
        l2_sector_hit_rate=l2_hit,
        hmma_issue_efficiency=hmma_eff,
        occupancy_pct=_round(100.0 * est.occupancy.occupancy_fraction, 2),
        thread_blocks=int(stats.launch.num_ctas),
        no_instruction_pct=100.0 * fr.get("no_instruction", 0.0),
        wait_pct=100.0 * fr.get("wait", 0.0),
        short_scoreboard_pct=100.0 * fr.get("short_scoreboard", 0.0),
        long_scoreboard_pct=100.0 * fr.get("long_scoreboard", 0.0),
        pipe_utilization=pipe_util,
        bottlenecks=attribution(est, model, top=top),
    )
