"""Test oracles: the interpreted twins of the production fast paths.

Production runs one path per job: each simulated kernel its compiled
plan (:mod:`repro.plans`), the functional layer its cached expansion,
trace replay the vectorised cache.  The slow, obviously-correct walks
those paths replaced live here, beside the tests and benchmarks that
hold the fast paths to them bit for bit:

* :mod:`.kernels` — the six simulated-kernel walks, as functions of the
  kernel's public state, and the :data:`ORACLES` registry;
* :mod:`.functional` — the functional SpMM/SDDMM expansions;
* :mod:`.cache` — the scalar :class:`SectorCache` and
  :func:`replay_l1_reference`;
* :mod:`.masks` — the whole-matrix attention-mask and mask-encoding
  builders that the vector-granular ones replaced.

This package imports only NumPy, SciPy and :mod:`repro` (the
benchmarks under ``benchmarks/`` use it without the test extras).
"""

from .cache import SectorCache, replay_l1_reference
from .functional import sddmm_functional_reference, spmm_functional_reference
from .kernels import (
    ORACLES,
    sddmm_octet,
    sddmm_octet_loop,
    sddmm_wmma,
    spmm_octet,
    spmm_octet_loop,
    spmm_wmma,
)
from .masks import band_random_mask_reference, mask_from_groups_reference

__all__ = [
    "ORACLES",
    "SectorCache",
    "band_random_mask_reference",
    "mask_from_groups_reference",
    "replay_l1_reference",
    "sddmm_functional_reference",
    "sddmm_octet",
    "sddmm_octet_loop",
    "sddmm_wmma",
    "spmm_functional_reference",
    "spmm_octet",
    "spmm_octet_loop",
    "spmm_wmma",
]
