"""Execution-plan codegen for the sparse kernel layer.

PyOP2-style split of *plan construction* from *plan execution*: the
simulated octet/wmma kernels and the shared functional paths used to
re-derive their tiling schedule (vector-row walk, k-group/octet
fragment gather, output-tile scatter) in interpreted Python on every
call.  This package compiles that schedule once per (kernel
fingerprint, structure signature) into flattened NumPy index arrays —
a *plan* — cached, frozen, in the ``plan`` memo region, and
executes it with a handful of vectorised array ops and zero per-octet
Python control flow.

Contracts:

* **bit parity** — plan execution is bit-for-bit the interpreted
  walk it replaces (outputs via uint16 views, issue accounting
  totals), enforced by the tier-1 parity test against the test
  oracles in ``tests/oracles`` and by the sanitizer's plan ownership
  check in ``tests/sanitizer``;
* **schedule only** — plans hold index arrays derived from topology
  and tile config, never operand values or spans; obs spans fire at
  execution time;
* **one production path** — every kernel runs its plan; the
  interpreted walks live with the tests (``tests/oracles``), where
  the parity tests and ``benchmarks/bench_codegen.py`` call them.
"""

from .core import cached_plan, plan_key
from .functional import (
    FunctionalSddmmPlan,
    FunctionalSpmmPlan,
    expand_vector_rows,
    functional_sddmm_plan,
    functional_spmm_plan,
)
from .layout import GroupLayout, accumulation_levels, group_layout, row_of_group
from .sddmm import (
    SddmmOctetPlan,
    SddmmWmmaPlan,
    execute_sddmm_octet,
    execute_sddmm_wmma,
    sddmm_octet_plan,
    sddmm_wmma_plan,
)
from .spmm import (
    SpmmOctetPlan,
    SpmmWmmaPlan,
    execute_spmm_octet,
    execute_spmm_wmma,
    spmm_octet_plan,
    spmm_wmma_plan,
)

__all__ = [
    "plan_key",
    "cached_plan",
    "GroupLayout",
    "group_layout",
    "accumulation_levels",
    "row_of_group",
    "SpmmOctetPlan",
    "SpmmWmmaPlan",
    "spmm_octet_plan",
    "spmm_wmma_plan",
    "execute_spmm_octet",
    "execute_spmm_wmma",
    "SddmmOctetPlan",
    "SddmmWmmaPlan",
    "sddmm_octet_plan",
    "sddmm_wmma_plan",
    "execute_sddmm_octet",
    "execute_sddmm_wmma",
    "FunctionalSpmmPlan",
    "FunctionalSddmmPlan",
    "expand_vector_rows",
    "functional_spmm_plan",
    "functional_sddmm_plan",
]
