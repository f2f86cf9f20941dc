"""statcheck: static consistency of a kernel's ``KernelStats``.

The analog on real hardware is the sanity a profiler run imposes on a
kernel's counters: Nsight cannot report more useful FLOPs than the
issued math instructions could retire, sectors outlive their requests,
or an occupancy the register file cannot hold.  Our kernels *author*
their counters analytically, so the same cross-checks catch modelling
bugs (an inflated ``flops``, a dropped request term, a resource demand
that can never be scheduled) before they skew every downstream figure.

Checks, in order:

* the ``violations()`` contract of :class:`~repro.perfmodel.events.KernelStats`
  re-run on the *final* field values (kernels mutate their traffic
  after construction, so ``__post_init__`` alone is not enough);
* launch/resource agreement and occupancy feasibility via
  :func:`~repro.hardware.register_file.compute_occupancy`;
* request/sector/byte monotonicity of global traffic;
* shared-memory wavefront/request monotonicity;
* the FLOP roofline: useful FLOPs never exceed what the issued math
  instructions can retire (capacity table below).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hardware.config import GPUSpec
from repro.hardware.instructions import InstrClass
from repro.hardware.register_file import compute_occupancy
from repro.perfmodel.events import KernelStats

from .findings import Checker, Finding

__all__ = ["FLOPS_PER_INSTRUCTION", "check_stats"]

#: Useful-FLOP retirement capacity of one warp-level instruction.
#: HMMA: one HMMA.884 step is a quadrant of a warp-wide mma.m8n8k4
#: (4 octets x an (8x4)·(4x8) each = 2048 FLOPs over 4 steps -> 512
#: per step; the octet SpMM at V=8 and the wmma decomposition both
#: retire exactly this).  Packed half ops do 2 lanes-worth per lane,
#: FMAs 2 FLOPs per op, adds/EXP one per lane.
FLOPS_PER_INSTRUCTION: Dict[InstrClass, float] = {
    InstrClass.HMMA: 512.0,
    InstrClass.HFMA2: 128.0,
    InstrClass.HMUL2: 64.0,
    InstrClass.FFMA: 64.0,
    InstrClass.FADD: 32.0,
    InstrClass.EXP: 32.0,
}

_REL_TOL = 1e-9


def check_stats(
    stats: KernelStats, spec: GPUSpec | None = None, max_findings: int = 25
) -> Tuple[List[Finding], dict]:
    """Validate one final ``KernelStats`` object; returns (findings, counters)."""
    findings: List[Finding] = []

    def report(message: str, location: str) -> None:
        if len(findings) < max_findings:
            findings.append(Finding(Checker.STATCHECK, stats.name, message, location))

    # 1. field-level contract on the final values
    for problem in stats.violations():
        report(problem, "KernelStats.violations")

    # 2. launch vs resources, and occupancy feasibility
    if stats.resources.cta_size != stats.launch.cta_size:
        report(
            f"resources.cta_size ({stats.resources.cta_size}) disagrees with "
            f"launch.cta_size ({stats.launch.cta_size})",
            "launch",
        )
    try:
        occ = compute_occupancy(stats.resources, spec)
    except ValueError as exc:
        occ = None
        report(f"occupancy infeasible: {exc}", "resources")
    if stats.program.sass_lines <= 0:
        report(f"program size must be positive, got {stats.program.sass_lines}", "program")

    # 3. global-memory monotonicity
    gm = stats.global_mem
    tol = 1.0 + _REL_TOL
    if gm.load_sectors < gm.load_requests * (1.0 - _REL_TOL) - 1e-6:
        report(
            f"load_sectors ({gm.load_sectors:g}) below load_requests "
            f"({gm.load_requests:g}) — every warp-level load touches at least "
            "one sector",
            "global_mem",
        )
    if gm.store_sectors < gm.store_requests * (1.0 - _REL_TOL) - 1e-6:
        report(
            f"store_sectors ({gm.store_sectors:g}) below store_requests "
            f"({gm.store_requests:g})",
            "global_mem",
        )
    if gm.bytes_requested > gm.sectors * 32.0 * tol + 1e-6:
        report(
            f"bytes_requested ({gm.bytes_requested:g}) exceed the "
            f"{gm.sectors:g} fetched sectors x 32 B — lanes cannot use bytes "
            "no sector carried",
            "global_mem",
        )
    if gm.bytes_dram_to_l2 > gm.bytes_l2_to_l1 * tol + 1e-6:
        report(
            f"bytes_dram_to_l2 ({gm.bytes_dram_to_l2:g}) exceed bytes_l2_to_l1 "
            f"({gm.bytes_l2_to_l1:g}) — DRAM traffic flows through L2",
            "global_mem",
        )

    # 4. shared-memory monotonicity
    sm = stats.shared_mem
    if sm.load_wavefronts < sm.load_requests:
        report(
            f"shared load_wavefronts ({sm.load_wavefronts}) below load_requests "
            f"({sm.load_requests}) — each request is at least one wavefront",
            "shared_mem",
        )
    if sm.store_wavefronts < sm.store_requests:
        report(
            f"shared store_wavefronts ({sm.store_wavefronts}) below "
            f"store_requests ({sm.store_requests})",
            "shared_mem",
        )
    if stats.resources.shared_bytes_per_cta == 0 and sm.requests:
        report(
            f"{sm.requests} shared-memory requests from a kernel declaring "
            "zero shared bytes per CTA",
            "shared_mem",
        )

    # 5. FLOP roofline against the issued math instructions
    capacity = sum(
        stats.instructions[cls] * cap for cls, cap in FLOPS_PER_INSTRUCTION.items()
    )
    if stats.flops > capacity * tol + 1e-6:
        report(
            f"flops ({stats.flops:g}) exceed what the issued math instructions "
            f"can retire ({capacity:g}) — inflated FLOP count or missing "
            "instructions",
            "flops",
        )

    counters = {
        "stat_checks": 9,
        "warps_per_sm": occ.warps_per_sm if occ is not None else 0,
    }
    return findings, counters
