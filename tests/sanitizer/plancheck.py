"""Ownership pass over compiled execution plans.

The plan compilers of :mod:`repro.plans` turn the interpreted kernel
walks into flattened gather/scatter schedules; a wrong schedule does
not crash — it silently mis-attributes fragments.  This checker
compiles each kernel's plan (with the compiler its
:mod:`repro.kernels.cases` row names) for the case's problem, through
the cache so the checked artifact is the cached artifact, and replays
the ownership contract against the structure via
:func:`.validate.validate_plan`, wrapping violations into
:class:`~.findings.Finding` rows under the existing ``ownership``
checker.

Counters report the schedule extents (``plan.groups``,
``plan.slots``) so a silently-empty plan is visible in the report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import plans

from .findings import Checker, Finding
from .validate import validate_plan

__all__ = ["check_plan", "check_functional_plans"]

_Result = Tuple[List[Finding], Dict[str, int]]


def _wrap(kernel: str, messages: List[str], location: str) -> List[Finding]:
    return [
        Finding(Checker.OWNERSHIP, kernel, msg, location=location)
        for msg in messages
    ]


def _layout_counters(plan) -> Dict[str, int]:
    lay = plan.layout
    return {"plan.groups": int(lay.num_groups), "plan.slots": int(lay.slots.size)}


def check_plan(case, kern, structure, k: Optional[int] = None) -> _Result:
    """Validate the plan ``case`` (a :class:`~repro.kernels.cases.KernelCase`
    row) compiles for ``kern`` on ``structure`` (``k``: SDDMM only)."""
    plan = case.compile_plan(kern, structure, k)
    msgs = validate_plan(plan, structure, k=k)
    return _wrap(kern.name, msgs, f"plans.{case.plan.__name__}"), _layout_counters(plan)


def check_functional_plans(kernel: str, structure) -> _Result:
    """Validate the shared functional-layer plans for ``structure``.

    Checks the SDDMM expansion plan always and the SpMM CSR skeleton
    when the structure carries values (mask-only encodings have no
    SpMM path).
    """
    findings: List[Finding] = []
    counters: Dict[str, int] = {}
    sd = plans.functional_sddmm_plan(structure)
    findings += _wrap(
        kernel, validate_plan(sd, structure), "plans.functional_sddmm_plan"
    )
    counters["plan.slots"] = int(sd.rows.size)
    if structure.values is not None:
        sp = plans.functional_spmm_plan(structure)
        findings += _wrap(
            kernel, validate_plan(sp, structure), "plans.functional_spmm_plan"
        )
        counters["plan.csr_entries"] = int(sp.indices.size)
    return findings, counters
