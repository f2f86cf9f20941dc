"""The sanitizer's check bodies: kernel cases x the seeded problems.

The kernels, their seeded operand builders and their plan compilers
come from the one case table, :data:`repro.kernels.cases.KERNEL_CASES`,
which the profiler shares.  This module pairs each kernel class with
its check body, which materialises a seeded problem, runs the
checkers that apply to that kernel's design, and records them in the
kernel's :class:`~.findings.SanitizerReport`, labelled with the
kernel's own ``.name``:

* **statcheck** runs for every case (all kernels author ``KernelStats``);
* **memcheck** runs where a trace generator exists
  (:mod:`repro.perfmodel.trace`: octet SpMM, Blocked-ELL, SDDMM, GEMM);
* **racecheck/synccheck** runs where the kernel stages through shared
  memory (plans derived from the same tile constants the stats use —
  single-warp CTAs are still bounds-checked);
* **ownership** runs for the HMMA octet kernels, whose simulate paths
  expose the register-level fragment schedule, and — as
  :mod:`.plancheck` — over every compiled execution plan
  (:mod:`repro.plans`) of the simulated and functional paths.

:func:`check_case` runs one case over every problem of
:data:`PROBLEMS`; ``tests/test_sanitizer.py`` runs it for every row of
the case table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.hardware.thread_hierarchy import ceil_div
from repro.kernels.cases import (
    KERNEL_CASES,
    KernelCase,
    csr_operand,
    cvse_operand,
    ell_operand,
    mask_operand,
)
from repro.kernels.cusparse import (
    BlockedEllSpmmKernel,
    CusparseCsrSpmmKernel,
    CusparseSddmmKernel,
)
from repro.kernels.gemm import DenseGemmKernel
from repro.kernels.sddmm_fpu import FpuSddmmKernel
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.softmax_sparse import SparseSoftmaxKernel
from repro.kernels.spmm_fpu import FpuSpmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel
from repro.perfmodel import trace

from . import memcheck, plancheck, racecheck, statcheck
from .findings import Checker, SanitizerReport

__all__ = ["ProblemSpec", "PROBLEMS", "check_case"]

_EB = 2  # the traced kernels are half-precision designs


@dataclass(frozen=True)
class ProblemSpec:
    """One seeded problem instance of the ``(M x K) x (K x N)`` family."""

    name: str
    m: int
    k: int
    n: int
    v: int            # column-vector length of the sparse operand
    density: float    # vector-level density of the sparse operand
    seed: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


#: The seeded problems every case runs on.  Geometry note: N is kept a
#: multiple of 128 and K a multiple of 64 so the LDG.128
#: transaction-shape contracts of :mod:`.memcheck` are *active* (ragged
#: shapes disable them) — the sanitizer should exercise the strict
#: contracts, the parity tests already cover ragged geometry.
PROBLEMS: Tuple[ProblemSpec, ...] = (
    ProblemSpec("full-s", m=64, k=64, n=128, v=4, density=0.3, seed=211),
    ProblemSpec("full-v8", m=64, k=128, n=128, v=8, density=0.25, seed=223),
    ProblemSpec("full-m", m=128, k=192, n=256, v=4, density=0.2, seed=307),
)


# --------------------------------------------------------------------- #
# problem materialisation (seeded; one construction per spec)
# --------------------------------------------------------------------- #
def _spmm_problem(p: ProblemSpec) -> Tuple[ColumnVectorSparseMatrix, np.ndarray]:
    rng = p.rng()
    a = cvse_operand(rng.random((p.m // p.v, p.k)) < p.density, p.v, rng)
    return a, rng.uniform(-1, 1, (p.k, p.n)).astype(np.float16)


def _sddmm_problem(p: ProblemSpec) -> Tuple[np.ndarray, np.ndarray, ColumnVectorSparseMatrix]:
    rng = p.rng()
    a = rng.uniform(-1, 1, (p.m, p.k)).astype(np.float16)
    b = rng.uniform(-1, 1, (p.k, p.n)).astype(np.float16)
    return a, b, mask_operand(rng.random((p.m // p.v, p.n)) < p.density, p.v)


# --------------------------------------------------------------------- #
# checker passes: each returns (findings, counters) for the report
# --------------------------------------------------------------------- #
def _statcheck(report: SanitizerReport, stats) -> None:
    report.record(statcheck.check_stats(stats), Checker.STATCHECK)


def _memcheck(report: SanitizerReport, stream, amap) -> None:
    report.record(memcheck.check_stream(stream, amap), Checker.MEMCHECK)


def _staging_plan_checks(report: SanitizerReport, plan: racecheck.SharedPlan) -> None:
    """Shared-memory plans from the kernels' staging constants."""
    report.record(racecheck.check_shared_plan(plan), Checker.RACECHECK,
                      Checker.SYNCCHECK)


# --------------------------------------------------------------------- #
# check bodies, one per kernel class: (table row, problem, report)
# --------------------------------------------------------------------- #
def _check_spmm_octet(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    a, b = _spmm_problem(p)
    _statcheck(report, c.kernel().stats_for(a, p.n))
    _memcheck(
        report,
        trace.octet_spmm_cta_sectors(a, p.n),
        memcheck.spmm_octet_address_map(a, p.n),
    )
    report.record(racecheck.check_spmm_octet_ownership(c.kernel(simulate=True), a, b),
                      Checker.OWNERSHIP)
    report.record(plancheck.check_plan(c, c.kernel(simulate=True), a), Checker.OWNERSHIP)
    # single-warp CTA: the LHS stage is race-free by construction, but
    # its accesses must stay inside the declared allocation
    stage = c.factory.TILE_K * a.vector_length * _EB
    strides = int(np.ceil(a.vector_row_nnz().max() / c.factory.TILE_K)) if a.nnz_vectors else 1
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, strides),
        ),
    )


def _check_spmm_wmma(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    a, _ = _spmm_problem(p)
    stats = c.kernel().stats_for(a, p.n)
    _statcheck(report, stats)
    report.record(plancheck.check_plan(c, c.kernel(simulate=True), a), Checker.OWNERSHIP)
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(int(a.vector_row_nnz().max() or 1), c.factory.TILE_K)),
        ),
    )


def _check_spmm_fpu(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    a, _ = _spmm_problem(p)
    stats = c.kernel().stats_for(a, p.n)
    _statcheck(report, stats)
    # the FPU kernels execute through the shared functional layer, so
    # their compiled plans are the functional expansion/CSR skeletons
    report.record(plancheck.check_functional_plans("spmm-fpu", a), Checker.OWNERSHIP)
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(int(a.vector_row_nnz().max() or 1), c.factory.TILE_K)),
        ),
    )


def _check_blocked_ell(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    ell = ell_operand((p.m, p.k), p.density, p.rng())
    stats = c.kernel().stats_for(ell, p.n)
    _statcheck(report, stats)
    _memcheck(
        report,
        trace.blocked_ell_cta_sectors(ell, p.n),
        memcheck.blocked_ell_address_map(ell, p.n),
    )
    # 4-warp CTA staging A blocks + B tiles behind barriers (§3.2's
    # barrier-heavy pattern — the synccheck surface)
    shared = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=c.factory.CTA_SIZE // 32, shared_bytes=shared,
            stage_bytes=shared, k_steps=max(1, ell.ell_width),
        ),
    )


def _check_gemm(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    kern = c.kernel()
    stats = kern.stats_for_shape(p.m, p.k, p.n)
    _statcheck(report, stats)
    tile_m, tile_n, cta = kern._pick_tile(p.m, p.n)
    _memcheck(
        report,
        trace.gemm_cta_sectors(p.m, p.k, p.n, tile_m=tile_m, tile_n=tile_n),
        memcheck.gemm_address_map(p.m, p.k, p.n),
    )
    # double-buffered staging: each k-step fills one half while the
    # other is read — modelled as one stage of half the allocation
    shared = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=cta // 32, shared_bytes=shared,
            stage_bytes=shared // 2, k_steps=ceil_div(p.k, kern.TILE_K),
        ),
    )


def _check_sddmm_octet(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    a, b, mask = _sddmm_problem(p)
    kern = c.kernel(simulate=True)
    _statcheck(report, c.kernel().stats_for(mask, p.k))
    _memcheck(
        report,
        trace.octet_sddmm_cta_sectors(mask, p.k),
        memcheck.sddmm_address_map(mask, p.k),
    )
    report.record(racecheck.check_sddmm_octet_ownership(kern, a, b, mask),
                      Checker.OWNERSHIP)
    report.record(plancheck.check_plan(c, kern, mask, p.k), Checker.OWNERSHIP)


def _check_sddmm_wmma(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    _, _, mask = _sddmm_problem(p)
    stats = c.kernel().stats_for(mask, p.k)
    _statcheck(report, stats)
    report.record(plancheck.check_plan(c, c.kernel(simulate=True), mask, p.k),
                      Checker.OWNERSHIP)
    _memcheck(
        report,
        trace.wmma_sddmm_cta_sectors(mask, p.k),
        memcheck.sddmm_address_map(mask, p.k),
    )
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            report.kernel, warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(p.k, c.factory.TILE_K)),
        ),
    )


def _check_sddmm_fpu(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    _, _, mask = _sddmm_problem(p)
    _statcheck(report, c.kernel().stats_for(mask, p.k))
    # the FPU kernels execute through the shared functional layer, so
    # their compiled plans are the functional expansion/CSR skeletons
    report.record(plancheck.check_functional_plans("sddmm-fpu", mask), Checker.OWNERSHIP)


def _check_softmax(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    a, _ = _spmm_problem(p)
    _statcheck(report, c.kernel().stats_for(a))


def _check_csr_spmm(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    _statcheck(report, c.kernel().stats_for(csr_operand((p.m, p.k), p.density, p.rng()), p.n))


def _check_csr_sddmm(c: KernelCase, p: ProblemSpec, report: SanitizerReport) -> None:
    _statcheck(report, c.kernel().stats_for(csr_operand((p.m, p.k), p.density, p.rng()), p.k))


#: kernel class -> its check body
_CHECKS: Dict[type, Callable[[KernelCase, ProblemSpec, SanitizerReport], None]] = {
    OctetSpmmKernel: _check_spmm_octet,
    WmmaSpmmKernel: _check_spmm_wmma,
    FpuSpmmKernel: _check_spmm_fpu,
    BlockedEllSpmmKernel: _check_blocked_ell,
    DenseGemmKernel: _check_gemm,
    OctetSddmmKernel: _check_sddmm_octet,
    WmmaSddmmKernel: _check_sddmm_wmma,
    FpuSddmmKernel: _check_sddmm_fpu,
    SparseSoftmaxKernel: _check_softmax,
    CusparseCsrSpmmKernel: _check_csr_spmm,
    CusparseSddmmKernel: _check_csr_sddmm,
}


@functools.lru_cache(maxsize=None)
def check_case(name: str) -> SanitizerReport:
    """Run the check body of the case-table row ``name`` over every
    problem of :data:`PROBLEMS`: one report, labelled with the kernel's
    own name.  Built once per process; callers only read it."""
    case = KERNEL_CASES[name]
    report = SanitizerReport(kernel=case.kernel().name)
    for problem in PROBLEMS:
        _CHECKS[case.factory](case, problem, report)
    return report
