"""racecheck/synccheck: shared-memory races, barrier divergence, and
HMMA fragment ownership.

Two contract surfaces of the simulated Volta stack are policed here:

* **Shared-memory staging** (``compute-sanitizer --tool racecheck`` /
  ``synccheck`` analog).  Each kernel's cooperative staging pattern is
  expressed as a :class:`SharedPlan` — the barrier-delimited schedule
  of warp-level shared-memory accesses of one CTA, derived from the
  kernel's tile constants (the same constants its ``KernelStats``
  shared-memory traffic is computed from).  The checker verifies that
  no two warps touch overlapping bytes in the same barrier interval
  with at least one write (racecheck), that every barrier is reached
  by every warp of the CTA (synccheck), and that no access leaves the
  CTA's declared shared allocation (reported as a memcheck finding —
  that is the tool that flags shared OOB on hardware).

* **Octet/thread-group fragment ownership** (§2.2, Figures 1/2/15).
  The HMMA.884 register contract says each octet computes an 8x8
  accumulator tile and *its accumulator ownership never moves* — also
  under the proposed SWITCH extension.  The checker re-derives each
  kernel's output strictly from per-octet owned fragments (one
  :func:`~repro.hardware.tensor_core.mma_m8n8k4` per octet, writing
  only the octet's owned rows) and demands the kernel's simulated
  execution match bit for bit; any cross-octet writeback, dropped
  HMMA step or broken SWITCH pairing shows up as a mismatch.  The
  issued-HMMA accounting is validated alongside (4 steps per mma;
  SWITCH steps all-or-nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.hardware.tensor_core import TensorCoreStats, mma_m8n8k4
from repro.hardware.thread_hierarchy import ceil_div

from .findings import Checker, Finding

__all__ = [
    "SharedAccess",
    "SharedPlan",
    "staged_plan",
    "check_shared_plan",
    "check_spmm_octet_ownership",
    "check_sddmm_octet_ownership",
]


# --------------------------------------------------------------------- #
# shared-memory plans
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedAccess:
    """One warp-level shared-memory access (byte-granular)."""

    warp: int
    start: int
    nbytes: int
    is_store: bool

    @property
    def end(self) -> int:
        return self.start + self.nbytes


@dataclass
class SharedPlan:
    """Barrier-delimited shared-memory schedule of one CTA.

    ``phases[i]`` holds the accesses issued between barrier ``i-1``
    and barrier ``i``; ``barriers[i]`` is the set of warps arriving at
    barrier ``i`` (``len(barriers) == len(phases) - 1``).
    """

    kernel: str
    warps: int
    shared_bytes: int
    phases: List[List[SharedAccess]] = field(default_factory=list)
    barriers: List[Set[int]] = field(default_factory=list)


def staged_plan(
    kernel: str,
    warps: int,
    shared_bytes: int,
    stage_bytes: int,
    k_steps: int,
    barrier: bool = True,
    store_overlap: int = 0,
    barrier_warps: Sequence[int] | None = None,
) -> SharedPlan:
    """Canonical cooperative staging: per k-step, every warp stores a
    disjoint ``stage_bytes / warps`` slice, (optionally) barriers, then
    every warp reads the whole stage, and barriers again before the
    buffer is overwritten.

    This is the pattern behind the GEMM/Blocked-ELL/wmma staging loops
    (§3.2, Figure 11 (1)); ``barrier=False`` and ``store_overlap`` are
    fault-injection knobs for the corpus.
    """
    plan = SharedPlan(kernel=kernel, warps=warps, shared_bytes=shared_bytes)
    slice_bytes = ceil_div(stage_bytes, warps)
    arrivals = set(range(warps)) if barrier_warps is None else set(barrier_warps)
    for _ in range(k_steps):
        stores = []
        for w in range(warps):
            start = max(0, w * slice_bytes - (store_overlap if w else 0))
            nbytes = min(slice_bytes + (store_overlap if w else 0), stage_bytes - w * slice_bytes + (store_overlap if w else 0))
            stores.append(SharedAccess(w, start, max(0, nbytes), True))
        loads = [SharedAccess(w, 0, stage_bytes, False) for w in range(warps)]
        if barrier:
            plan.phases.append(stores)
            plan.barriers.append(set(arrivals))
            plan.phases.append(loads)
            plan.barriers.append(set(arrivals))
        else:
            plan.phases.append(stores + loads)
            plan.barriers.append(set(range(warps)))
    if plan.barriers and len(plan.barriers) == len(plan.phases):
        plan.barriers.pop()  # no trailing barrier after the last phase
    return plan


def _overlaps(a: SharedAccess, b: SharedAccess) -> bool:
    return a.start < b.end and b.start < a.end


def check_shared_plan(plan: SharedPlan, max_findings: int = 25) -> Tuple[List[Finding], dict]:
    """Race/sync/bounds validation of one CTA's shared-memory plan."""
    findings: List[Finding] = []
    counters = {"shared_accesses": 0, "barriers": len(plan.barriers)}

    def report(checker: Checker, message: str, location: str) -> None:
        if len(findings) < max_findings:
            findings.append(Finding(checker, plan.kernel, message, location))

    all_warps = set(range(plan.warps))
    for bi, arrived in enumerate(plan.barriers):
        missing = sorted(all_warps - set(arrived))
        if missing:
            report(
                Checker.SYNCCHECK,
                f"barrier {bi} reached by {len(arrived)}/{plan.warps} warps "
                f"(missing {missing}) — divergent __syncthreads",
                f"barrier {bi}",
            )
    for pi, phase in enumerate(plan.phases):
        counters["shared_accesses"] += len(phase)
        for acc in phase:
            if acc.start < 0 or acc.end > plan.shared_bytes:
                report(
                    Checker.MEMCHECK,
                    f"shared-memory access [{acc.start}, {acc.end}) outside the "
                    f"CTA's {plan.shared_bytes} B allocation",
                    f"phase {pi}, warp {acc.warp}",
                )
        # race: conflicting accesses from different warps, same interval
        writes = [a for a in phase if a.is_store]
        for w in writes:
            for other in phase:
                if other.warp == w.warp:
                    continue
                if _overlaps(w, other):
                    kind = "write-write" if other.is_store else "read-write"
                    report(
                        Checker.RACECHECK,
                        f"{kind} race on shared bytes "
                        f"[{max(w.start, other.start)}, {min(w.end, other.end)}) "
                        f"between warp {w.warp} and warp {other.warp} with no "
                        "intervening barrier",
                        f"phase {pi}",
                    )
                    break
            else:
                continue
            break
    return findings, counters


# --------------------------------------------------------------------- #
# HMMA octet fragment ownership
# --------------------------------------------------------------------- #
def _check_tc_accounting(
    kernel: str, tc: TensorCoreStats, switched: bool
) -> List[Finding]:
    out: List[Finding] = []
    if tc.hmma_steps != 4 * tc.mma_instructions:
        out.append(
            Finding(
                Checker.OWNERSHIP,
                kernel,
                f"issued {tc.hmma_steps} HMMA steps for {tc.mma_instructions} "
                "mma.m8n8k4 (contract: 4 steps each, none removed — §7.1.3)",
                "tensor-core accounting",
            )
        )
    want_switch = tc.hmma_steps if switched else 0
    if tc.switch_steps != want_switch:
        out.append(
            Finding(
                Checker.OWNERSHIP,
                kernel,
                f"{tc.switch_steps}/{tc.hmma_steps} HMMA steps carried the SWITCH "
                f"flag (contract: {'all' if switched else 'none'} — partial "
                "switching breaks the Mat_b mux pairing)",
                "tensor-core accounting",
            )
        )
    return out


def check_spmm_octet_ownership(kern, a: ColumnVectorSparseMatrix, b: np.ndarray) -> Tuple[List[Finding], dict]:
    """Differential ownership check of the octet SpMM simulate path.

    Reconstructs the output with one :func:`mma_m8n8k4` per octet,
    writing *only* the octet's owned 8 rows of the switched 64x8 tile,
    and requires the kernel's simulated execution to match bit for bit
    (the batched fast path is pinned bit-identical to this schedule,
    so any deviation is an unowned-fragment writeback or a dropped
    step, not rounding).
    """
    out = np.asarray(kern._execute_simulated(a, b))
    tc = getattr(kern, "last_sim_stats", TensorCoreStats())
    findings = _check_tc_accounting(kern.name, tc, switched=False)

    v = a.vector_length
    m, k = a.shape
    b16 = np.asarray(b, dtype=np.float16)
    n = b16.shape[1]
    tile_n = kern.TILE_N
    ref = np.zeros((m, n), dtype=np.float32)
    octet_ops = 0
    for vrow in range(a.num_vector_rows):
        cols, vals = a.row_slice(vrow)
        if cols.size == 0:
            continue
        for jt in range(ceil_div(n, tile_n)):
            n0, n1 = jt * tile_n, min(n, (jt + 1) * tile_n)
            acc = np.zeros((tile_n, 8), dtype=np.float32)
            for s0 in range(0, cols.size, 4):
                s1 = min(cols.size, s0 + 4)
                frag_b = np.zeros((tile_n, 4), dtype=np.float16)
                frag_b[: n1 - n0, : s1 - s0] = b16[cols[s0:s1], n0:n1].T
                frag_a = np.zeros((4, 8), dtype=np.float16)
                frag_a[: s1 - s0, :v] = vals[s0:s1]
                for octet in range(tile_n // 8):
                    r0 = octet * 8
                    owned = mma_m8n8k4(frag_b[r0 : r0 + 8], frag_a, acc[r0 : r0 + 8])
                    # ownership: the writeback lands in rows [r0, r0+8) only
                    acc[r0 : r0 + 8] = owned
                    octet_ops += 1
            ref[vrow * v : (vrow + 1) * v, n0:n1] += acc[: n1 - n0, :v].T
    ref16 = ref.astype(np.float16)
    if out.shape != ref16.shape or not np.array_equal(out, ref16, equal_nan=True):
        bad = (
            int(np.sum(out != ref16))
            if out.shape == ref16.shape
            else out.size
        )
        findings.append(
            Finding(
                Checker.OWNERSHIP,
                kern.name,
                "simulated output deviates from the octet-owned fragment "
                f"schedule in {bad} element(s) — a fragment was written back "
                "outside its octet's owned rows (or an HMMA step was lost)",
                "octet writeback",
            )
        )
    return findings, {"octet_mmas": octet_ops}


def check_sddmm_octet_ownership(
    kern, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
) -> Tuple[List[Finding], dict]:
    """Differential ownership check of the octet SDDMM simulate path.

    Same contract as the SpMM check, plus the SWITCH discipline: the
    ``arch`` variant must issue *every* step with the SWITCH flag on
    inverted operands (the Figure 15 identity), the others none.
    """
    out = kern._execute_simulated(a, b, mask)
    tc = getattr(kern, "last_sim_stats", TensorCoreStats())
    switched = getattr(kern, "variant", "reg") == "arch"
    findings = _check_tc_accounting(kern.name, tc, switched=switched)

    a16 = np.asarray(a, dtype=np.float16)
    b16 = np.asarray(b, dtype=np.float16)
    m, k = a16.shape
    v = mask.vector_length
    k_pad = ceil_div(k, 4) * 4
    a_pad = np.zeros((m, k_pad), dtype=np.float16)
    a_pad[:, :k] = a16
    b_pad = np.zeros((k_pad, b16.shape[1]), dtype=np.float16)
    b_pad[:k] = b16
    ref_vals = np.zeros((mask.nnz_vectors, v), dtype=np.float32)
    octet_ops = 0
    mma_kwargs = (
        dict(invert_groups=True, switch_steps=(0, 1, 2, 3)) if switched else {}
    )
    for vrow in range(mask.num_vector_rows):
        cols, _ = mask.row_slice(vrow)
        if cols.size == 0:
            continue
        lo = mask.row_ptr[vrow]
        rows = slice(vrow * v, (vrow + 1) * v)
        for s0 in range(0, cols.size, 8):
            sel = cols[s0 : s0 + 8]
            acc = np.zeros((8, 8), dtype=np.float32)
            for k0 in range(0, k_pad, 4):
                frag_b = np.zeros((8, 4), dtype=np.float16)
                frag_b[: sel.size] = b_pad[k0 : k0 + 4, sel].T
                frag_a = np.zeros((4, 8), dtype=np.float16)
                frag_a[:, :v] = a_pad[rows, k0 : k0 + 4].T
                acc = mma_m8n8k4(frag_b, frag_a, acc, **mma_kwargs)
                octet_ops += 1
            ref_vals[lo + s0 : lo + s0 + sel.size] = acc[: sel.size, :v]
    ref16 = ref_vals.astype(np.float16)
    got = np.asarray(out.values)
    if got.shape != ref16.shape or not np.array_equal(got, ref16, equal_nan=True):
        bad = int(np.sum(got != ref16)) if got.shape == ref16.shape else got.size
        findings.append(
            Finding(
                Checker.OWNERSHIP,
                kern.name,
                "simulated output deviates from the octet-owned fragment "
                f"schedule in {bad} value(s) — unowned-fragment writeback or "
                "broken SWITCH re-pairing",
                "octet writeback",
            )
        )
    return findings, {"octet_mmas": octet_ops}
