"""Warp-scheduler stall model.

Reproduces the Nsight-style stall taxonomy the paper profiles
(Table 1: "No Instruction", "Wait", "Short Scoreboard"; plus the
long-scoreboard and barrier components that the latency model needs):

* **No Instruction** — instruction-fetch starvation; driven by the L0
  i-cache model and the kernel's static program size (§3.2).  Fetch
  starvation hits every warp of the sub-core at once (they share the
  L0), so multithreading cannot hide it.
* **Wait** — fixed-latency execution dependencies; dominated by the
  IMAD/IADD3 addressing chains of the FPU kernels (§3.2, §7.2.2).
* **Short Scoreboard** — waits on shared-memory returns; the
  Blocked-ELL kernel's barrier-separated shared-memory staging shows up
  here (§3.2).
* **Long Scoreboard** — waits on global-memory returns.
* **Barrier** — ``__syncthreads`` rendezvous.

Per-warp stall cycles come from the instruction mix and device
latencies.  How much is *visible* at the scheduler depends on two
things: how many warps each scheduler interleaves (occupancy), and how
*correlated* the warps' stalls are (``KernelStats.stall_correlation``)
— barrier-synchronised kernels stall in lockstep and hide nothing,
which is precisely why the Blocked-ELL kernel runs far below its
roofline (§3.2) while the barrier-free octet kernels do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hardware.config import GPUSpec, default_spec
from ..hardware.icache import icache_stall_fraction
from ..hardware.instructions import InstrClass
from .events import KernelStats

__all__ = ["StallProfile", "compute_stalls"]


@dataclass
class StallProfile:
    """Per-source stall cycles (per average warp) and derived fractions."""

    wait: float
    short_scoreboard: float
    long_scoreboard: float
    barrier: float
    no_instruction_fraction: float  # scheduler-level fetch starvation
    per_warp_instructions: float
    stall_correlation: float

    def visible(self, warps_per_scheduler: float) -> Dict[str, float]:
        """Stall cycles *not hidden* by interleaving other warps.

        Independent stalls shrink as 1/w with ``w`` warps per
        scheduler; correlated stalls (lockstep barriers) do not shrink.
        """
        w = max(1.0, warps_per_scheduler)
        c = min(1.0, max(0.0, self.stall_correlation))
        shrink = c + (1.0 - c) / w
        return {
            "wait": self.wait * shrink,
            "short_scoreboard": self.short_scoreboard * shrink,
            "long_scoreboard": self.long_scoreboard * shrink,
            "barrier": self.barrier * shrink,
        }

    def issued_fraction(self, warps_per_scheduler: float) -> float:
        """Fraction of scheduler slots that issue an instruction.

        Slot accounting: per warp, ``issued + visible stalls`` busy
        slots, further diluted by fetch starvation which steals a fixed
        share of *all* slots.
        """
        vis = sum(self.visible(warps_per_scheduler).values())
        issued = self.per_warp_instructions
        if issued <= 0:
            return 1.0
        return (issued / (issued + vis)) * (1.0 - self.no_instruction_fraction)

    def fractions(self, warps_per_scheduler: float) -> Dict[str, float]:
        """Share of scheduler slot time per stall reason (Tables 1-3)."""
        vis = self.visible(warps_per_scheduler)
        issued = self.per_warp_instructions
        stall_sum = sum(vis.values())
        ni = self.no_instruction_fraction
        busy = issued + stall_sum
        if busy <= 0:  # empty launch: nothing issues, nothing stalls
            return {k: 0.0 for k in vis} | {"no_instruction": 0.0, "issued": 0.0}
        total = busy / max(1e-9, (1.0 - ni))
        out = {k: v / total for k, v in vis.items()}
        out["no_instruction"] = ni
        out["issued"] = issued / total
        return out


def _memory_latency(stats: KernelStats, spec: GPUSpec) -> float:
    """Average load-to-use latency of a global load, by hit level."""
    req = max(1.0, stats.global_mem.bytes_requested)
    to_l1 = min(1.0, stats.global_mem.bytes_l2_to_l1 / req)
    to_l2 = min(to_l1, stats.global_mem.bytes_dram_to_l2 / req)
    l1_frac = 1.0 - to_l1
    l2_frac = to_l1 - to_l2
    return l1_frac * spec.lat_l1 + l2_frac * spec.lat_l2 + to_l2 * spec.lat_dram


def compute_stalls(stats: KernelStats, spec: GPUSpec | None = None) -> StallProfile:
    """Per-warp stall cycles by Nsight reason for one kernel launch."""
    spec = spec or default_spec()
    mix = stats.instructions
    warps = max(1, stats.launch.total_warps)
    i_w = mix.total / warps
    ilp = max(1.0, stats.ilp)

    # --- Wait: fixed-latency dependency chains -----------------------------
    # integer addressing + dependent FMA chains; ILP divides the exposed
    # latency (independent chains overlap).
    frac_fixed = mix.integer_fraction
    math_total = mix.math_instructions / max(1.0, mix.total)
    dep_math = 0.25 * math_total  # back-to-back dependent share of math
    wait = i_w * (frac_fixed + dep_math) * (spec.lat_alu - 1.0) / ilp

    # --- Short Scoreboard: shared-memory returns ---------------------------
    lds_w = mix[InstrClass.LDS] / warps
    short_sb = lds_w * spec.lat_shared / (ilp * 2.0)

    # --- Long Scoreboard: global returns ------------------------------------
    ldg_w = mix.global_load_requests / warps
    mem_lat = _memory_latency(stats, spec)
    # loads issued in batches overlap each other: expose one latency per
    # dependent batch of `ilp` loads.
    long_sb = ldg_w * mem_lat / (ilp * 4.0)
    # register spills hit local memory with DRAM latency, never batched
    if stats.global_mem.local_bytes > 0:
        ldl_w = (mix[InstrClass.LDL] + mix[InstrClass.STL]) / warps
        long_sb += ldl_w * spec.lat_dram / ilp

    # --- Barrier -------------------------------------------------------------
    bar_w = (mix[InstrClass.BAR] + mix[InstrClass.MEMBAR]) / warps
    barrier = bar_w * spec.lat_barrier

    ni = icache_stall_fraction(stats.program, spec)

    return StallProfile(
        wait=wait,
        short_scoreboard=short_sb,
        long_scoreboard=long_sb,
        barrier=barrier,
        no_instruction_fraction=ni,
        per_warp_instructions=i_w,
        stall_correlation=stats.stall_correlation,
    )
