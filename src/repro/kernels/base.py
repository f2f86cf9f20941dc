"""Kernel abstraction shared by all dense/sparse kernels.

A *kernel* here is the pair of (a) a functional computation on NumPy
arrays with the same numeric semantics as the CUDA original (fp16
operands, fp32 accumulation where the original accumulates in fp32) and
(b) an analytic :class:`~repro.perfmodel.events.KernelStats` describing
what the original would execute on the simulated device.  The two are
produced together by :meth:`Kernel.run`.

``precision`` selects the operand width ("half" = 2-byte operands, the
paper's focus; "single" = 4-byte, used by the Figure 4 baselines).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..hardware.config import GPUSpec, default_spec
from ..perfmodel.events import KernelStats
from ..perfmodel.latency import LatencyEstimate, LatencyModel

__all__ = [
    "KernelResult", "Kernel", "Precision", "elem_bytes", "as_compute", "require_values",
    "sparse_a_bytes",
]

Precision = str  # "half" | "single"


def elem_bytes(precision: Precision) -> int:
    """Operand width in bytes (half = 2, single = 4)."""
    if precision == "half":
        return 2
    if precision == "single":
        return 4
    raise ValueError(f"unknown precision {precision!r}")


def as_compute(x: np.ndarray, precision: Precision) -> np.ndarray:
    """Round operands to the storage precision, return fp32 for math.

    fp32 multiply-accumulate over fp16-valued inputs matches the HMMA
    and HMUL+FADD paths; for "single" the operands are already fp32.
    """
    if precision == "half":
        return x.astype(np.float16).astype(np.float32)
    return x.astype(np.float32)


def require_values(a: Any, kernel: str) -> None:
    """Reject a mask-only sparse operand where a kernel computes on the
    operand's values (SpMM's A at execution)."""
    if a.values is None:
        raise ValueError(
            f"{kernel} needs a sparse A with values; got a mask-only matrix "
            "(attach values with with_values())"
        )


def sparse_a_bytes(a: Any) -> int:
    """Encoded bytes of a CVSE SpMM operand A: its index arrays plus
    ``nnz * V`` fp16 values.  The analytic models read only A's
    topology, so a mask-only A is priced as the fp16-valued matrix of
    the same topology."""
    return a.row_ptr.nbytes + a.col_idx.nbytes + a.nnz * 2


@dataclass
class KernelResult:
    """Output of one kernel execution."""

    output: Any
    stats: KernelStats
    latency: LatencyEstimate

    @property
    def time_us(self) -> float:
        return self.latency.time_us

    def speedup_over(self, other: "KernelResult") -> float:
        return other.time_us / self.time_us


class Kernel(abc.ABC):
    """Base class: subclasses implement ``_execute`` and ``_stats``."""

    #: human-readable kernel family name (used in reports)
    name: str = "kernel"
    #: relative throughput calibration (fraction of modelled peak the
    #: real kernel achieves; fit once against the paper's measurements)
    efficiency: float = 0.75

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "half") -> None:
        self.spec = spec or default_spec()
        self.precision = precision
        if precision not in ("half", "single"):
            raise ValueError(f"unknown precision {precision!r}")
        self._model = LatencyModel(self.spec, efficiency=self.efficiency)

    # subclasses override -------------------------------------------------- #
    @abc.abstractmethod
    def _execute(self, *args, **kwargs):
        """Functional computation; returns the output object."""

    @abc.abstractmethod
    def _stats(self, *args, **kwargs) -> KernelStats:
        """Analytic device statistics for the same launch."""

    # public API ------------------------------------------------------------ #
    def run(self, *args, **kwargs) -> KernelResult:
        """Execute the kernel: numerics + modelled latency together."""
        out = self._execute(*args, **kwargs)
        stats = self._stats(*args, **kwargs)
        latency = self._model.estimate(stats)
        return KernelResult(output=out, stats=stats, latency=latency)

    def estimate(self, *args, **kwargs) -> LatencyEstimate:
        """Latency without executing the math (cheap parameter sweeps)."""
        return self._model.estimate(self._stats(*args, **kwargs))
