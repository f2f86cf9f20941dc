"""Plan-cache core: content-addressed lookup of compiled plans.

A *plan* is the schedule half of a kernel execution — precomputed
gather/scatter index arrays and fragment batch descriptors derived
from a sparsity structure and a kernel's tile configuration, never
from operand values.  Compiling one costs a per-row Python walk (the
thing the plan exists to amortise), so plans are cached in the
``plan`` region of :mod:`repro.perfmodel.memo`, keyed on

* an operation tag (``"spmm-octet"``, ``"functional-sddmm"``, ...),
* :func:`~repro.perfmodel.memo.kernel_fingerprint` of the kernel
  instance (class + uppercase tile constants + scalar attributes), so
  changing a tile config invalidates the plan, and
* :func:`~repro.perfmodel.memo.signature` of the sparse structure
  (shape, vector length, topology digest — values excluded), plus any
  runtime extras (e.g. the SDDMM inner dimension).

The region freezes a plan when it stores it (the plan classes are
frozen dataclasses and every index array is set read-only) and hands
out that one object, so an executor can neither rebind nor write a
cached schedule.

Every kernel runs its plan; the interpreted walks the plans replaced
are test oracles in ``tests/oracles``, which production never
imports.  The parity tests and ``benchmarks/bench_codegen.py`` call
them directly.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..perfmodel import memo

__all__ = ["plan_key", "cached_plan"]


def plan_key(op: str, kern: Any, structure: Any, *extras) -> Tuple:
    """Content address of a plan (see the module docstring for parts).

    ``kern`` may be ``None`` for kernel-independent plans (the
    functional layer has no tile config).  Raises :class:`TypeError`
    when the kernel instance carries unfingerprintable attributes —
    the caller then compiles fresh rather than risk serving another
    configuration's schedule.
    """
    fp = None if kern is None else memo.kernel_fingerprint(kern)
    return (op, fp, memo.signature(structure)) + tuple(extras)


def cached_plan(op: str, kern: Any, structure: Any, extras: Tuple, compute: Callable[[], Any]):
    """Fetch (or compile and store) a plan through the ``plan`` region.

    Misses run ``compute`` inside the memo layer's ``memo.miss.plan``
    tracing span; hits return the stored, frozen plan.  Falls back to a fresh compile when memoisation is
    disabled or the key cannot be formed.
    """
    if not memo.enabled():
        return compute()
    try:
        key = plan_key(op, kern, structure, *extras)
    except TypeError:
        return compute()
    return memo.memoise("plan", key, compute, copy_result=False)
