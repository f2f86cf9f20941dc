"""Performance model: kernel statistics -> stalls -> latency."""

from .events import GlobalTraffic, KernelStats, estimate_dram_bytes, scale_batch
from .pipeline import StallProfile, compute_stalls
from .latency import LatencyEstimate, LatencyModel

__all__ = [
    "GlobalTraffic",
    "scale_batch",
    "KernelStats",
    "estimate_dram_bytes",
    "StallProfile",
    "compute_stalls",
    "LatencyEstimate",
    "LatencyModel",
]
