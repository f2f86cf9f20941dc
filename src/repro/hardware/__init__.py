"""Simulated Volta-class GPU substrate.

The paper's kernels are SASS-level CUDA; this package substitutes the
hardware with a functional + performance model:

* :mod:`~repro.hardware.config` — the device description (V100);
* :mod:`~repro.hardware.thread_hierarchy` — grid/CTA/warp/group/octet
  arithmetic (paper §2.1);
* :mod:`~repro.hardware.cache` — L1/L2 sector caches for trace replay;
* :mod:`~repro.hardware.shared_memory` — shared-memory traffic counters;
* :mod:`~repro.hardware.register_file` — occupancy calculator;
* :mod:`~repro.hardware.icache` — L0 instruction-cache stall model;
* :mod:`~repro.hardware.instructions` — warp-level instruction mixes;
* :mod:`~repro.hardware.tensor_core` — functional HMMA.884 / WMMA model
  including the proposed SWITCH extension (paper Fig. 15).
"""

from .config import AMPERE_A100, GPUSpec, VOLTA_V100, default_spec
from .thread_hierarchy import (
    LaunchConfig,
    ceil_div,
    group_lanes,
    is_high_group,
    lane_to_group,
    lane_to_octet,
    octet_lanes,
)
from .cache import CacheStats, SectorCache, VectorSectorCache
from .shared_memory import SharedMemoryStats
from .register_file import KernelResources, Occupancy, compute_occupancy
from .icache import ICacheModel, icache_stall_fraction
from .instructions import InstrClass, InstructionMix, PIPE_OF
from .tensor_core import (
    OctetFragments,
    TensorCoreStats,
    hmma_step,
    mma_m8n8k4,
    wmma_m8n32k16,
)

__all__ = [
    "AMPERE_A100",
    "GPUSpec",
    "VOLTA_V100",
    "default_spec",
    "LaunchConfig",
    "ceil_div",
    "group_lanes",
    "is_high_group",
    "lane_to_group",
    "lane_to_octet",
    "octet_lanes",
    "CacheStats",
    "SectorCache",
    "VectorSectorCache",
    "SharedMemoryStats",
    "KernelResources",
    "Occupancy",
    "compute_occupancy",
    "ICacheModel",
    "icache_stall_fraction",
    "InstrClass",
    "InstructionMix",
    "PIPE_OF",
    "OctetFragments",
    "TensorCoreStats",
    "hmma_step",
    "mma_m8n8k4",
    "wmma_m8n32k16",
]
