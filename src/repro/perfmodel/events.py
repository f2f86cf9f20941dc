"""Kernel-level statistics: the contract between kernels and the model.

Every kernel in :mod:`repro.kernels` produces a :class:`KernelStats`
describing what it *would* execute on the simulated device:

* warp-level instruction mix (:class:`~repro.hardware.instructions.InstructionMix`);
* global-memory traffic at request/sector/transaction granularity and
  the estimated inter-level byte flows (L2->L1, DRAM->L2);
* shared-memory traffic;
* launch shape and per-CTA resources (for occupancy);
* static program size (for the L0 i-cache model);
* useful floating-point work (for roofline sanity checks).

The latency model (:mod:`repro.perfmodel.latency`) consumes only this
object, so analytic and trace-driven kernels are interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List

from ..hardware.icache import ICacheModel
from ..hardware.instructions import InstructionMix
from ..hardware.register_file import KernelResources
from ..hardware.shared_memory import SharedMemoryStats
from ..hardware.thread_hierarchy import LaunchConfig

__all__ = ["GlobalTraffic", "KernelStats", "estimate_dram_bytes", "MAX_SECTORS_PER_REQUEST"]

#: Hard coalescer bound: one warp-level request (32 lanes, up to 16 B
#: per lane) can touch at most 32 distinct 32 B sectors.  The paper's
#: "Sectors/Req" tables (2/3) report 16 for the ideal LDG.128 pattern;
#: anything above 32 is physically impossible on the modelled device.
MAX_SECTORS_PER_REQUEST = 32.0

#: relative slack for float-accounted invariants
_REL_TOL = 1e-9


def estimate_dram_bytes(unique_bytes: float, stream_bytes: float, l2_capacity: float) -> float:
    """DRAM traffic estimate given the unique footprint and the L2 stream.

    If the unique footprint fits in (most of) L2, only compulsory
    misses reach DRAM.  Beyond that, re-references hit with probability
    proportional to the resident fraction (a standard LRU stack
    approximation, adequate for the streaming kernels modelled here).

    The result never exceeds ``stream_bytes``: DRAM traffic flows
    through L2, so a kernel whose L1 reuse already shrank the L2 stream
    below the matrices' total size cannot pull more than that stream
    from DRAM.
    """
    if stream_bytes < unique_bytes:
        unique_bytes = stream_bytes
    resident = 0.8 * l2_capacity
    if unique_bytes <= resident or unique_bytes <= 0:
        return unique_bytes
    hit_prob = resident / unique_bytes
    return unique_bytes + (stream_bytes - unique_bytes) * (1.0 - hit_prob)


@dataclass
class GlobalTraffic:
    """Global-memory traffic of one kernel launch (device-wide)."""

    load_requests: float = 0.0      # warp-level LDG instructions
    store_requests: float = 0.0
    load_sectors: float = 0.0       # 32B sectors requested at L1
    store_sectors: float = 0.0
    bytes_requested: float = 0.0    # useful bytes the lanes asked for
    bytes_l2_to_l1: float = 0.0     # Figure 18's metric
    bytes_dram_to_l2: float = 0.0
    local_bytes: float = 0.0        # register-spill traffic (DRAM-backed)

    def __post_init__(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("inconsistent GlobalTraffic: " + "; ".join(problems))

    def violations(self) -> List[str]:
        """Contract violations of the current field values.

        Kernels build their traffic incrementally, so ``__post_init__``
        only sees the construction-time values; :meth:`violations` is
        re-run by :class:`KernelStats` (and by the sanitizer's
        statcheck) once the final numbers are in place.
        """
        out: List[str] = []
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                out.append(f"{f.name} must be finite and non-negative, got {v!r}")
        if out:
            return out
        cap = MAX_SECTORS_PER_REQUEST
        if self.load_sectors > self.load_requests * cap * (1.0 + _REL_TOL):
            out.append(
                f"load_sectors ({self.load_sectors:g}) exceed {cap:g} sectors per "
                f"warp-level load request ({self.load_requests:g} requests)"
            )
        if self.store_sectors > self.store_requests * cap * (1.0 + _REL_TOL):
            out.append(
                f"store_sectors ({self.store_sectors:g}) exceed {cap:g} sectors per "
                f"warp-level store request ({self.store_requests:g} requests)"
            )
        return out

    @property
    def requests(self) -> float:
        return self.load_requests + self.store_requests

    @property
    def sectors(self) -> float:
        return self.load_sectors + self.store_sectors

    @property
    def sectors_per_request(self) -> float:
        """Tables 2/3 "Sectors/Req" (higher = wider coalesced accesses)."""
        return self.sectors / self.requests if self.requests else 0.0

    @property
    def l1_missed_sectors(self) -> float:
        """Figure 5's "L1$ Missed Sectors" (a *load*-side counter in
        Nsight: store/writeback traffic is excluded)."""
        return max(0.0, self.bytes_l2_to_l1 - self.store_sectors * 32.0) / 32.0

    def merge(self, other: "GlobalTraffic") -> None:
        self.load_requests += other.load_requests
        self.store_requests += other.store_requests
        self.load_sectors += other.load_sectors
        self.store_sectors += other.store_sectors
        self.bytes_requested += other.bytes_requested
        self.bytes_l2_to_l1 += other.bytes_l2_to_l1
        self.bytes_dram_to_l2 += other.bytes_dram_to_l2
        self.local_bytes += other.local_bytes


@dataclass
class KernelStats:
    """Everything the latency model needs to know about one launch."""

    name: str
    launch: LaunchConfig
    resources: KernelResources
    instructions: InstructionMix = field(default_factory=InstructionMix)
    global_mem: GlobalTraffic = field(default_factory=GlobalTraffic)
    shared_mem: SharedMemoryStats = field(default_factory=SharedMemoryStats)
    program: ICacheModel = field(default_factory=lambda: ICacheModel(sass_lines=256))
    flops: float = 0.0              # useful FLOPs (2 x MACs)
    #: average ILP of the dependence chains feeding each math pipe;
    #: the octet kernels' load-all-then-compute trick (§5.4) raises this.
    ilp: float = 2.0
    #: how correlated the warps' stalls are (0 = independent, hidden by
    #: interleaving other warps; 1 = all warps stall together, e.g. on
    #: either side of a __syncthreads, and nothing hides them — the
    #: §3.2 Blocked-ELL pathology).
    stall_correlation: float = 0.2
    #: max-over-SMs / mean per-SM work under breadth-first CTA
    #: assignment — DLMC's heavy-tailed rows leave some SMs with the
    #: long tail (1.0 = perfectly balanced).
    work_imbalance: float = 1.0
    notes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError(f"inconsistent KernelStats {self.name!r}: " + "; ".join(problems))

    def violations(self) -> List[str]:
        """Static contract violations (construction-time and final).

        ``launch`` and ``resources`` enforce their own invariants in
        their ``__post_init__``; this covers the fields owned here plus
        the embedded traffic objects, which kernels keep mutating after
        construction (re-run by the sanitizer's statcheck on the final
        values).
        """
        out: List[str] = []
        if not math.isfinite(self.flops) or self.flops < 0:
            out.append(f"flops must be finite and non-negative, got {self.flops!r}")
        if not math.isfinite(self.ilp) or self.ilp < 1.0:
            out.append(f"ilp must be >= 1 (at least the issued chain itself), got {self.ilp!r}")
        if not 0.0 <= self.stall_correlation <= 1.0:
            out.append(f"stall_correlation must be in [0, 1], got {self.stall_correlation!r}")
        if not math.isfinite(self.work_imbalance) or self.work_imbalance < 1.0 - 1e-9:
            out.append(
                "work_imbalance is max-over-SMs / mean and cannot drop below 1, "
                f"got {self.work_imbalance!r}"
            )
        for cls, n in self.instructions.counts.items():
            if not math.isfinite(n) or n < 0:
                out.append(f"instruction count {cls.value} must be finite and non-negative, got {n!r}")
        sm = self.shared_mem
        for name in ("load_requests", "store_requests", "load_wavefronts",
                     "store_wavefronts", "bytes_loaded", "bytes_stored"):
            v = getattr(sm, name)
            if not math.isfinite(v) or v < 0:
                out.append(f"shared_mem.{name} must be finite and non-negative, got {v!r}")
        out.extend(self.global_mem.violations())
        return out


def scale_batch(stats: KernelStats, copies: int) -> KernelStats:
    """Stats for a *batched* launch of ``copies`` identical problems.

    Attention layers run their per-head-per-sample kernels as one
    batched launch (grid grows by ``copies``); one launch overhead is
    paid and small grids fill the machine — which is why the dense
    baseline's skinny per-head GEMMs regain efficiency at batch time.
    """
    if copies <= 1:
        return stats
    from ..hardware.thread_hierarchy import LaunchConfig  # local: avoid cycle

    gm = GlobalTraffic(
        load_requests=stats.global_mem.load_requests * copies,
        store_requests=stats.global_mem.store_requests * copies,
        load_sectors=stats.global_mem.load_sectors * copies,
        store_sectors=stats.global_mem.store_sectors * copies,
        bytes_requested=stats.global_mem.bytes_requested * copies,
        bytes_l2_to_l1=stats.global_mem.bytes_l2_to_l1 * copies,
        bytes_dram_to_l2=stats.global_mem.bytes_dram_to_l2 * copies,
        local_bytes=stats.global_mem.local_bytes * copies,
    )
    shared = SharedMemoryStats(
        load_requests=stats.shared_mem.load_requests * copies,
        store_requests=stats.shared_mem.store_requests * copies,
        load_wavefronts=stats.shared_mem.load_wavefronts * copies,
        store_wavefronts=stats.shared_mem.store_wavefronts * copies,
        bytes_loaded=stats.shared_mem.bytes_loaded * copies,
        bytes_stored=stats.shared_mem.bytes_stored * copies,
    )
    return KernelStats(
        name=f"{stats.name} xB{copies}",
        launch=LaunchConfig(
            grid_x=stats.launch.grid_x,
            grid_y=stats.launch.grid_y * copies,
            cta_size=stats.launch.cta_size,
        ),
        resources=stats.resources,
        instructions=stats.instructions.scaled(copies),
        global_mem=gm,
        shared_mem=shared,
        program=stats.program,
        flops=stats.flops * copies,
        ilp=stats.ilp,
        stall_correlation=stats.stall_correlation,
        work_imbalance=stats.work_imbalance,
        notes=dict(stats.notes),
    )
