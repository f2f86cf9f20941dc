"""Shared-memory traffic counters.

Shared memory on Volta has 32 banks of 4 bytes.  A warp-level LDS/STS is
serviced in as many conflict-free *wavefronts* as the worst per-bank
collision count; each wavefront moves up to 128 B.  The "Short
Scoreboard" stall reason the paper profiles (Table 1) is the warp
waiting on shared-memory returns, so the latency model needs both the
wavefront count (bandwidth) and the request count (latency events).
The kernels derive both analytically and record them through
:meth:`SharedMemoryStats.bulk`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SharedMemoryStats"]


@dataclass
class SharedMemoryStats:
    """Aggregate shared-memory traffic for a kernel."""

    load_requests: int = 0
    store_requests: int = 0
    load_wavefronts: int = 0
    store_wavefronts: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0

    @property
    def requests(self) -> int:
        return self.load_requests + self.store_requests

    @property
    def wavefronts(self) -> int:
        return self.load_wavefronts + self.store_wavefronts

    def merge(self, other: "SharedMemoryStats") -> None:
        self.load_requests += other.load_requests
        self.store_requests += other.store_requests
        self.load_wavefronts += other.load_wavefronts
        self.store_wavefronts += other.store_wavefronts
        self.bytes_loaded += other.bytes_loaded
        self.bytes_stored += other.bytes_stored

    def bulk(
        self,
        requests: int,
        wavefronts_per_request: float,
        bytes_per_request: int,
        is_store: bool = False,
    ) -> None:
        """Record many identical warp accesses at once (analytic path)."""
        waves = int(round(requests * wavefronts_per_request))
        nbytes = requests * bytes_per_request
        if is_store:
            self.store_requests += requests
            self.store_wavefronts += waves
            self.bytes_stored += nbytes
        else:
            self.load_requests += requests
            self.load_wavefronts += waves
            self.bytes_loaded += nbytes
