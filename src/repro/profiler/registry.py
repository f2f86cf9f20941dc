"""Profile registry: the 13 registered kernels on seeded problems.

The kernels and their operand builders come from the one case table,
:data:`repro.kernels.cases.KERNEL_CASES`, which the tier-1 sanitizer
tests share; the problems here are attention shaped: a
:class:`ProfileConfig` names a sequence length ``seq``, a head
dimension ``head``, a vector length and a vector-level density —
the fig20 geometry where SpMM is ``(seq x seq) @ (seq x head)``, SDDMM
produces the ``seq x seq`` score mask with inner dimension ``head``,
and the dense baseline is the matching cuBLAS GEMM.

Every case yields the kernel's authored stats, its calibrated latency
model, and — where a sector stream generator exists in
:mod:`repro.perfmodel.trace` — the trace-replay result that supplies
the measured L1 hit rate.  Everything is seeded and memoised, so
:func:`profile_all` is deterministic and cheap to re-run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernels.cases import (
    KERNEL_CASES,
    KernelCase,
    csr_operand,
    cvse_operand,
    ell_operand,
    mask_operand,
)
from ..kernels.cusparse import BlockedEllSpmmKernel
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.sddmm_wmma import WmmaSddmmKernel
from ..kernels.softmax_sparse import SparseSoftmaxKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..perfmodel import trace
from ..perfmodel.events import KernelStats
from ..perfmodel.latency import LatencyModel
from ..perfmodel.trace import TraceResult
from .counters import KernelProfile, derive_profile

__all__ = ["ProfileConfig", "CONFIGS", "DEFAULT_CONFIG", "KERNEL_NAMES",
           "profile_all"]


@dataclass(frozen=True)
class ProfileConfig:
    """One seeded attention-shaped profiling problem."""

    name: str
    seq: int          # sequence length: both dims of the sparse operand
    head: int         # head dimension: SpMM N / SDDMM inner K
    v: int            # column-vector length
    density: float    # vector-level density of the sparse operand
    seed: int

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (the profile document's ``config``)."""
        return asdict(self)


#: named profile configs; the fig20 pair carries the acceptance gates
CONFIGS: Dict[str, ProfileConfig] = {
    "smoke": ProfileConfig("smoke", seq=128, head=64, v=4, density=0.25, seed=7),
    "fig20-k64": ProfileConfig("fig20-k64", seq=1024, head=64, v=8,
                               density=0.1, seed=7),
    "fig20-k256": ProfileConfig("fig20-k256", seq=1024, head=256, v=8,
                                density=0.1, seed=7),
}

DEFAULT_CONFIG = "fig20-k64"


# --------------------------------------------------------------------- #
# evidence: (stats, model, optional trace replay) per registered kernel
# --------------------------------------------------------------------- #
_Evidence = Tuple[KernelStats, LatencyModel, Optional[TraceResult]]

#: kernel class -> its sector-trace replay over ``(operand, head)``
_TRACES = {
    OctetSpmmKernel: trace.trace_octet_spmm,
    BlockedEllSpmmKernel: trace.trace_blocked_ell,
    OctetSddmmKernel: trace.trace_octet_sddmm,
    WmmaSddmmKernel: trace.trace_wmma_sddmm,
}


def _operand(kind: str, cfg: ProfileConfig):
    """The seeded ``seq x seq`` operand of ``kind``; each kind draws
    from its own generator (``seed``, ``seed + 1`` ...)."""
    shape = (cfg.seq, cfg.seq)
    if kind == "cvse":
        rng = np.random.default_rng(cfg.seed)
        return cvse_operand(rng.random((cfg.seq // cfg.v, cfg.seq)) < cfg.density,
                            cfg.v, rng)
    if kind == "mask":
        rng = np.random.default_rng(cfg.seed + 1)
        return mask_operand(rng.random((cfg.seq // cfg.v, cfg.seq)) < cfg.density,
                            cfg.v)
    if kind == "ell":
        return ell_operand(shape, cfg.density, np.random.default_rng(cfg.seed + 2))
    return csr_operand(shape, cfg.density, np.random.default_rng(cfg.seed + 3))


def _evidence(case: KernelCase, cfg: ProfileConfig) -> _Evidence:
    kern = case.kernel()
    if case.operand == "dense":
        shape = (cfg.seq, cfg.head, cfg.seq)
        return kern.stats_for_shape(*shape), kern._model, trace.trace_gemm(*shape)
    op = _operand(case.operand, cfg)
    if case.factory is SparseSoftmaxKernel:
        stats = kern.stats_for(op)
    else:
        stats = kern.stats_for(op, cfg.head)
    replay = _TRACES.get(case.factory)
    return stats, kern._model, replay(op, cfg.head) if replay else None


#: the registered kernel names, registry order
KERNEL_NAMES: Tuple[str, ...] = tuple(KERNEL_CASES)


def profile_all(config: ProfileConfig,
                kernels: Optional[List[str]] = None,
                top: int = 3) -> Dict[str, KernelProfile]:
    """Profile the registered kernels on ``config``.

    ``kernels`` restricts the run (unknown names raise ``ValueError``
    listing the valid choices); the result maps kernel name to its
    :class:`~repro.profiler.counters.KernelProfile` in registry order.
    """
    if kernels:
        unknown = sorted(set(kernels) - set(KERNEL_CASES))
        if unknown:
            raise ValueError(
                f"unknown kernels: {unknown}; valid choices: {sorted(KERNEL_CASES)}")
    names = [n for n in KERNEL_CASES if kernels is None or n in set(kernels)]
    out: Dict[str, KernelProfile] = {}
    with obs_tracing.span("profiler.capture", config=config.name,
                          kernels=len(names)):
        for name in names:
            with obs_tracing.span(f"profiler.kernel.{name}"):
                stats, model, tr = _evidence(KERNEL_CASES[name], config)
                out[name] = derive_profile(stats, model, trace=tr,
                                           config=config.name, top=top)
                out[name].name = name  # registry name, not the stats label
            obs_metrics.counter_add("profiler.kernels.profiled")
    return out
