"""Shared instruction/traffic counting helpers for the kernel models.

The derivations below are referenced by the per-kernel ``_stats``
implementations; keeping them here makes the per-kernel code read like
the paper's own accounting.

Conventions
-----------
* All instruction counts are *warp-level issued* instructions (what
  Nsight's ``inst_executed`` reports divided by warp).
* One LDG.128 (16 B per lane) moves 512 B per warp.
* A perfectly 128B-coalesced LDG.128 touches 16 sectors in 4
  transactions (Sectors/Req = 16); an LDG.32 over 32 consecutive
  4-byte lanes touches 4 sectors (Sectors/Req = 4) — exactly the two
  regimes contrasted in Table 2.
"""

from __future__ import annotations

import math


__all__ = [
    "sputnik_sass_lines",
    "warp_reduce_steps",
]


def sputnik_sass_lines(vector_length: int) -> int:
    """Static SASS size of the FPU (Sputnik-extended) kernels.

    §7.2.2 reports 3776 lines for V=4 and 6968 for V=8 — the fully
    unrolled V x TileK x TileN loops.  The sizes are linear in V; we
    interpolate/extrapolate the measured pair.
    """
    return int(round(584 + 798 * vector_length))


def warp_reduce_steps(participants: int) -> int:
    """SHFL rounds of a butterfly reduction across ``participants``."""
    if participants <= 1:
        return 0
    return int(math.ceil(math.log2(participants)))
