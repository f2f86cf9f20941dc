"""TCU-based 1-D Octet Tiling SDDMM — the paper's primary SDDMM kernel (§6.3-6.4).

Launch shape (§6.4): ``TileK = 64``, ``TileN = 32``, CTA = 32, grid
``ceil(M/V) x ceil(N/32)``; each CTA owns a ``V x 32`` output tile and
traverses K with stride 64, gathering only the nonzero output vectors
of its window (empty windows exit immediately).

Per k-step the warp runs ``TileN/8`` sub-steps; each sub-step is an
``(8 x 64) · (64 x V)`` tile (after the LHS/RHS switch).  Both switched
fragments load with LDG.128 into registers — eight 128B-coalesced
transactions (guidelines IV + V) — but land with mismatched register
indices between thread group ``i`` and ``i+4``; the **High Group
Switch** (swap register ``j`` and ``(j+8) mod 16`` in the high groups)
repairs that, at the price of an *inverted pattern* in the last two
HMMA steps.  Three remedies, all modelled (Figure 19's ``mma``
variants):

* ``reg``  — a second accumulator set for steps 3-4, merged at the end
  (extra registers -> lower occupancy);
* ``shfl`` — shuffle operands between group ``i`` and ``i+4`` before
  each mma (extra SHFL instructions);
* ``arch`` — the proposed ``HMMA...SWITCH`` instruction (Figure 15)
  swaps the Mat_a sources and XORs the Mat_b mux inside the TCU:
  no shuffles, no extra registers.  §7.3.2: 33% fewer registers,
  21.3% more active warps/scheduler, 10.4% fewer instructions than
  ``reg``.

After K is exhausted, the four octets' partial sums (each octet owns a
16-wide k-slice) are combined with warp shuffles — the reduction whose
fixed cost dominates at small K (§7.3.2: SHFL+FADD is 29.5% of
instructions at K=64, 17.2% at K=256).
"""

from __future__ import annotations

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.config import GPUSpec
from ..hardware.icache import ICacheModel
from ..hardware.instructions import InstrClass, InstructionMix
from ..hardware.register_file import KernelResources
from ..perfmodel import memo
from ..hardware.thread_hierarchy import LaunchConfig, ceil_div
from ..perfmodel.events import GlobalTraffic, KernelStats, estimate_dram_bytes
from ..perfmodel.reuse import coresident_reuse_bytes
from .. import plans as _plans
from .base import Kernel, Precision
from .counting import warp_reduce_steps
from .functional import sddmm_functional
from .sddmm_common import analyze_windows

__all__ = ["OctetSddmmKernel", "SDDMM_VARIANTS"]

SDDMM_VARIANTS = ("reg", "shfl", "arch")


class OctetSddmmKernel(Kernel):
    """SDDMM with the octet tiling; ``variant`` picks the inverted-pattern fix."""

    TILE_K = 64
    TILE_N = 32
    CTA_SIZE = 32

    efficiency = 0.70

    def __init__(
        self,
        spec: GPUSpec | None = None,
        precision: Precision = "half",
        variant: str = "reg",
        simulate: bool = False,
    ) -> None:
        if precision != "half":
            raise ValueError("the octet kernel is a half-precision design (HMMA.884)")
        if variant not in SDDMM_VARIANTS:
            raise ValueError(f"variant must be one of {SDDMM_VARIANTS}, got {variant!r}")
        super().__init__(spec, precision)
        self.variant = variant
        self.name = f"sddmm-mma-octet-{variant}"
        self.simulate = simulate

    # ------------------------------------------------------------------ #
    def _execute(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> ColumnVectorSparseMatrix:
        if self.simulate:
            return self._execute_simulated(a, b, mask)
        return sddmm_functional(a, b, mask, self.precision)

    def _execute_simulated(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> ColumnVectorSparseMatrix:
        """Compiled-plan walk: the whole structure's octet sub-steps in
        one batched call per k-group, driven by a cached execution
        plan (:mod:`repro.plans`) — bit-for-bit the interpreted per-row
        walk kept as a test oracle (``tests/oracles``).  The variant's
        SWITCH discipline is applied at execution time, never baked into
        the cached plan.
        """
        a16 = np.asarray(a, dtype=np.float16)
        b16 = np.asarray(b, dtype=np.float16)
        sim_kwargs = (
            dict(invert_groups=True, switch_steps=(0, 1, 2, 3))
            if self.variant == "arch"
            else {}
        )
        plan = _plans.sddmm_octet_plan(self, mask, a16.shape[1])
        out_vals, tc = _plans.execute_sddmm_octet(plan, a16, b16, mask, sim_kwargs)
        self.last_sim_stats = tc
        return mask.with_values(out_vals.astype(np.float16))

    # ------------------------------------------------------------------ #
    def _stats(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> KernelStats:
        return self.stats_for(mask, np.asarray(a).shape[1])

    @memo.memoised_stats
    def stats_for(self, mask: ColumnVectorSparseMatrix, k: int) -> KernelStats:
        """Analytic device statistics for the masked ``(M x k)·(k x N)``."""
        spec = self.spec
        eb = 2
        v = mask.vector_length
        m, n = mask.shape
        win = analyze_windows(mask, self.TILE_N)
        launch = LaunchConfig(
            grid_x=win.num_vector_rows, grid_y=win.num_windows, cta_size=self.CTA_SIZE
        )
        k_steps = ceil_div(k, self.TILE_K)
        nnz = float(win.total_vectors)
        active = float(win.num_ctas_active)
        # compacted sub-steps: ceil(window occupancy / 8) per k-step
        substeps = win.substeps(8) * k_steps

        mix = InstructionMix()
        # per sub-step the 4 octets split k = 64 into 16-wide slices:
        # each octet runs its (8x16)·(16x8) tile as 4 serial mma.m8n8k4,
        # so the warp issues 4 warp-wide mma = 16 HMMA steps per
        # sub-step (the per-octet partial sums are merged by the
        # end-of-K shuffle reduction below).
        mma_per_substep = 4.0
        mix.add(InstrClass.HMMA, substeps * mma_per_substep * 4.0)
        if self.variant == "shfl":
            # operand shuffles between group i and i+4 before each mma
            mix.add(InstrClass.SHFL, substeps * mma_per_substep * 2.0)
        # loads: switched-LHS (up to 8 compacted B columns x 64 halves,
        # one column per 128B transaction — B is column-major so any 8
        # nonzero columns coalesce; lanes of absent columns predicate
        # off) + switched-RHS (V x 64 A halves per k-step)
        b_bytes = nnz * k_steps * self.TILE_K * eb
        a_bytes = active * k_steps * v * self.TILE_K * eb
        mix.add(InstrClass.LDG128, substeps * 2.0 + a_bytes / (32 * 16))
        mix.add(InstrClass.LDG32, active)  # window index metadata
        # cross-octet reduction at the end of K (fixed per-CTA cost):
        # 2 butterfly rounds across 4 octets for each of the V x 32/32
        # per-lane outputs, plus the inverted-pattern merge for `reg`.
        red_rounds = warp_reduce_steps(4)
        red_ops = active * red_rounds * max(1.0, v * self.TILE_N / 32.0)
        mix.add(InstrClass.SHFL, red_ops)
        mix.add(InstrClass.FADD, red_ops)
        if self.variant == "reg":
            mix.add(InstrClass.FADD, active * max(1.0, v * self.TILE_N / 32.0))
        # fixed-pattern addressing (guideline III)
        mix.add(InstrClass.IMAD, active * k_steps * 3.0 + substeps)
        mix.add(InstrClass.IADD3, active * k_steps * 1.0)
        misc = active * 10.0 + substeps * 1.0
        if self.variant == "arch":
            misc *= 0.6  # §7.3.2: ~10% fewer total instructions vs reg
        mix.add(InstrClass.MISC, misc)
        mix.add(InstrClass.BRANCH, active * k_steps)
        mix.add(InstrClass.STG, nnz * v * eb / (32 * 4))

        gm = GlobalTraffic()
        gm.load_requests = float(mix[InstrClass.LDG128] + mix[InstrClass.LDG32])
        gm.store_requests = float(mix[InstrClass.STG])
        gm.load_sectors = (a_bytes + b_bytes) / 32.0
        gm.store_sectors = nnz * v * eb / 32.0
        gm.bytes_requested = a_bytes + b_bytes + nnz * v * eb
        # the ~32 co-resident CTAs cover consecutive vector rows of the
        # same column window, so their B-column fetches share the L1
        mask_density = nnz / max(1.0, float(win.num_vector_rows) * n)
        b_fetched = coresident_reuse_bytes(
            b_bytes,
            num_groups=max(1, launch.num_ctas // 32),
            density=max(1e-9, mask_density),
            group_rows=32,
            l1_effective_bytes=spec.l1_bytes_per_sm,
        )
        gm.bytes_l2_to_l1 = a_bytes + b_fetched + nnz * v * eb
        unique = (m + n) * k * eb + mask.nnz * eb
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        # registers (§6.4/§7.3.2): the octet's single partial-sum set
        # plus the pipelined operand slices; `reg` carries a second
        # accumulator set for the inverted steps (the paper measures
        # 33% more registers and 21.3% fewer active warps/scheduler vs
        # `arch`), `shfl` needs staging registers for the swaps.
        regs = {"arch": 46, "shfl": 52, "reg": 72}[self.variant]
        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=regs,
                shared_bytes_per_cta=0,  # guideline IV: registers only
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=392 if self.variant != "shfl" else 440),
            flops=2.0 * nnz * v * k,
            ilp=4.0,
            stall_correlation=0.1,  # register-only dataflow, no barriers
        )
        return stats
