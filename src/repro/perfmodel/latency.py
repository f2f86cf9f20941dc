"""Interval-style latency model: KernelStats -> estimated runtime.

The estimate is the maximum of the classic bounds, per SM, over however
many occupancy-limited waves the grid needs:

* **issue** — warp instructions / (4 schedulers x fetch efficiency);
* **pipe throughput** — per-pipe warp instructions / pipe rate
  (tensor, fp32/fp16 FMA, ALU, LSU, SFU, shuffle);
* **shared memory** — wavefronts / (1 per cycle);
* **L2 / DRAM bandwidth** — inter-level bytes / per-SM byte rate;
* **latency** — per-warp critical path (issued instructions + visible
  stalls) times the number of warp batches a scheduler must run
  serially; this is where low occupancy or a tiny grid (guideline II)
  hurts.

A fixed launch overhead is added; it is what makes very sparse, tiny
kernels stop scaling (visible at the 0.98-sparsity end of Figs 17/19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hardware.config import GPUSpec, default_spec
from ..hardware.register_file import Occupancy, compute_occupancy
from . import memo
from .events import KernelStats
from .pipeline import StallProfile, compute_stalls

__all__ = ["LatencyEstimate", "LatencyModel"]


@dataclass
class LatencyEstimate:
    """Resolved timing for one kernel launch."""

    name: str
    time_us: float
    cycles_per_sm: float
    bounds: Dict[str, float]           # per-bound cycles (per SM)
    limiter: str
    occupancy: Occupancy
    stalls: StallProfile
    stall_fractions: Dict[str, float]

    def speedup_over(self, other: "LatencyEstimate") -> float:
        return other.time_us / self.time_us


class LatencyModel:
    """Maps :class:`KernelStats` to runtime on a :class:`GPUSpec`.

    ``efficiency`` scales the final throughput to account for effects
    outside the model (DVFS, partition camping, instruction replays);
    per-kernel calibration constants live with the kernels, not here.
    """

    #: fraction of the second-highest bound charged on top of the limiter
    OVERLAP_SLACK = 0.15

    def __init__(self, spec: GPUSpec | None = None, efficiency: float = 1.0) -> None:
        self.spec = spec or default_spec()
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.efficiency = efficiency

    # ------------------------------------------------------------------ #
    def estimate(self, stats: KernelStats) -> LatencyEstimate:
        """Resolve ``stats`` to a timing, memoised on the full stats
        fingerprint plus (spec, efficiency, overlap slack) — any field
        the model reads is part of the key."""
        if not memo.enabled():
            return self._estimate_uncached(stats)
        key = (
            "LatencyModel.estimate",
            memo.signature(self.spec),
            float(self.efficiency),
            float(self.OVERLAP_SLACK),
            memo.stats_signature(stats),
        )
        return memo.memoise("latency", key, lambda: self._estimate_uncached(stats))

    def _estimate_uncached(self, stats: KernelStats) -> LatencyEstimate:
        spec = self.spec
        occ = compute_occupancy(stats.resources, spec)
        stalls = compute_stalls(stats, spec)

        n_ctas = stats.launch.num_ctas
        # grids smaller than the SM count leave SMs idle (the dense
        # baseline at skinny N, guideline II): per-SM work divides by
        # the number of *active* SMs, while device-wide bandwidth
        # bounds keep the full chip in the denominator.
        active_sms = max(1, min(spec.num_sms, n_ctas))
        ctas_per_sm = n_ctas / active_sms
        warps_per_cta = stats.launch.warps_per_cta
        warps_per_sm_total = ctas_per_sm * warps_per_cta
        mix = stats.instructions
        total_instr = mix.total
        instr_per_sm = total_instr / active_sms

        bounds: Dict[str, float] = {}

        # ---- issue bound ----------------------------------------------------
        # the scheduler only issues on un-stalled slots: fetch starvation
        # plus whatever per-warp stalls the resident warps cannot hide
        # (correlation-aware) dilute the 4-per-cycle issue rate.
        issued_frac = stalls.issued_fraction(occ.warps_per_scheduler)
        bounds["issue"] = instr_per_sm / (spec.issue_rate * max(1e-6, issued_frac))

        # ---- pipe bounds -----------------------------------------------------
        pipes = mix.by_pipe()
        rate = {
            "tensor": spec.tensor_hmma_rate,
            "fma32": spec.fma_fp32_rate,
            "fma16": spec.fma_fp16_rate,
            "alu": spec.alu_int_rate,
            "lsu": spec.lsu_rate,
            "shuffle": spec.shuffle_rate,
            "sfu": spec.sfu_rate,
            "misc": spec.issue_rate,
        }
        # fma16/fma32/alu share the FMA datapath on Volta: bound the sum too
        fma_family = pipes.get("fma16", 0.0) + pipes.get("fma32", 0.0) + pipes.get("alu", 0.0)
        for pipe, count in pipes.items():
            bounds[f"pipe:{pipe}"] = count / active_sms / rate[pipe]
        bounds["pipe:fma-family"] = fma_family / active_sms / spec.fma_fp32_rate

        # ---- shared memory bound ---------------------------------------------
        waves = stats.shared_mem.wavefronts
        bounds["shared"] = waves / active_sms  # 1 wavefront / cycle / SM

        # ---- interconnect bounds ----------------------------------------------
        gm = stats.global_mem
        l2_bytes = gm.bytes_l2_to_l1 + gm.local_bytes
        dram_bytes = gm.bytes_dram_to_l2 + gm.local_bytes
        # L1<->core: sectors move at l1_bytes_per_cycle per SM
        bounds["l1"] = (gm.sectors * spec.sector_bytes) / active_sms / spec.l1_bytes_per_cycle
        bounds["l2"] = l2_bytes / spec.num_sms / spec.l2_bytes_per_cycle_per_sm
        bounds["dram"] = dram_bytes / spec.num_sms / spec.dram_bytes_per_cycle_per_sm

        # ---- latency bound -----------------------------------------------------
        # a grid smaller than one wave still pays one full per-warp
        # critical path per serial batch of resident warps.
        warps_per_sched_resident = occ.warps_per_scheduler
        i_w = stalls.per_warp_instructions
        visible = sum(stalls.visible(warps_per_sched_resident).values())
        per_warp_cycles = (i_w + visible) / max(
            1e-6, 1.0 - stalls.no_instruction_fraction
        )
        batches = max(1.0, warps_per_sm_total / max(1.0, occ.warps_per_sm))
        bounds["latency"] = per_warp_cycles * batches

        # efficiency scales what the model idealises (compute pipes,
        # issue); the bandwidth figures are measured-achievable already.
        memory_bounds = {"l1", "l2", "dram", "shared"}
        scaled = {
            key: b / (1.0 if key in memory_bounds else self.efficiency)
            for key, b in bounds.items()
        }
        ordered = sorted(scaled.values(), reverse=True)
        # bounds never overlap perfectly: charge a slice of the runner-up
        # (this is what makes near-bound effects — extra shuffles, a
        # register-pressure occupancy dip — visible in the total, as
        # they are on hardware).
        cycles = ordered[0] + (self.OVERLAP_SLACK * ordered[1] if len(ordered) > 1 else 0.0)
        # the device finishes with its most-loaded SM: heavy-tailed row
        # distributions (DLMC) stretch the tail past the mean
        cycles *= max(1.0, stats.work_imbalance)
        limiter = max(scaled, key=scaled.get)

        time_us = cycles / (spec.clock_ghz * 1e3) + spec.launch_overhead_us

        return LatencyEstimate(
            name=stats.name,
            time_us=time_us,
            cycles_per_sm=cycles,
            bounds=bounds,
            limiter=limiter,
            occupancy=occ,
            stalls=stalls,
            stall_fractions=stalls.fractions(warps_per_sched_resident),
        )
