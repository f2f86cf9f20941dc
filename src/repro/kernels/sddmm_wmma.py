"""TCU-based 1-D Warp Tiling SDDMM — the classic-mapping baseline (§6.2).

Warp tiles of ``(V x 64) · (64 x TileN)`` computed with
``wmma.m8n32k16``.  Kernel and compute efficiency are good and the
partial sums live in one copy, but:

* the classic operand layout maps 16 consecutive registers per lane, so
  direct register loads would be 16B coalesced — the kernel instead
  coalesces through shared memory (guideline IV violated), showing up
  as the "Short Scoreboard" 14.4/17.9% rows of Table 3;
* the LHS fragment is replicated 4x across thread groups (extra
  registers, lower occupancy);
* ``TileN`` must be a multiple of 32 and ``V < 8`` wastes computation.

This is also the TCU baseline of Figure 19 ("wmma").
"""

from __future__ import annotations

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.config import GPUSpec
from ..hardware.icache import ICacheModel
from ..hardware.instructions import InstrClass, InstructionMix
from ..hardware.register_file import KernelResources
from ..hardware.thread_hierarchy import LaunchConfig, ceil_div
from ..perfmodel import memo
from ..perfmodel.events import GlobalTraffic, KernelStats, estimate_dram_bytes
from ..perfmodel.reuse import coresident_reuse_bytes
from .. import plans as _plans
from .base import Kernel, Precision
from .functional import sddmm_functional
from .sddmm_common import analyze_windows

__all__ = ["WmmaSddmmKernel"]


class WmmaSddmmKernel(Kernel):
    """SDDMM with the classic GEMM-like warp-tile-to-TCU mapping."""

    TILE_K = 64
    TILE_N = 32
    CTA_SIZE = 32

    efficiency = 0.70

    def __init__(
        self,
        spec: GPUSpec | None = None,
        precision: Precision = "half",
        simulate: bool = False,
    ) -> None:
        if precision != "half":
            raise ValueError("wmma SDDMM is a half-precision design")
        super().__init__(spec, precision)
        self.name = "sddmm-wmma-warp"
        self.simulate = simulate

    def _execute(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> ColumnVectorSparseMatrix:
        if self.simulate:
            return self._execute_simulated(a, b, mask)
        return sddmm_functional(a, b, mask, self.precision)

    def _execute_simulated(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> ColumnVectorSparseMatrix:
        """Compiled-plan walk: the whole structure's wmma.m8n32k16
        tiles in one batched call per k-step, driven by a cached execution plan
        (:mod:`repro.plans`) — bit-for-bit the interpreted per-row walk
        kept as a test oracle (``tests/oracles``).
        """
        a16 = np.asarray(a, dtype=np.float16)
        b16 = np.asarray(b, dtype=np.float16)
        plan = _plans.sddmm_wmma_plan(self, mask, a16.shape[1])
        out_vals, tc = _plans.execute_sddmm_wmma(plan, a16, b16, mask)
        self.last_sim_stats = tc
        return mask.with_values(out_vals.astype(np.float16))

    def _stats(
        self, a: np.ndarray, b: np.ndarray, mask: ColumnVectorSparseMatrix
    ) -> KernelStats:
        return self.stats_for(mask, np.asarray(a).shape[1])

    @memo.memoised_stats
    def stats_for(self, mask: ColumnVectorSparseMatrix, k: int) -> KernelStats:
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
        # the window's nonzero vectors are compacted into 32-wide wmma
        # tiles (TileN must be a multiple of 32, §6.2, so a window with
        # 3 nonzeros still pays a padded 32-column tile); each tile
        # needs 4 wmma.m8n32k16 to cover the 64-deep k-step.
        tiles32 = win.substeps(self.TILE_N) * k_steps
        wmma_groups = tiles32 * (self.TILE_K // 16)

        mix = InstructionMix()
        # each wmma.m8n32k16 = 16 warp HMMA steps; V < 8 wastes rows
        mix.add(InstrClass.HMMA, wmma_groups * 16.0)
        # operands staged via shared memory to repair the 16B pattern
        a_bytes = active * k_steps * v * self.TILE_K * eb
        # staging gathers only the window's nonzero columns; the
        # padded 32-wide tile exists in compute, not in traffic
        b_bytes = nnz * k_steps * self.TILE_K * eb
        ldg = (a_bytes + b_bytes) / (32 * 16)
        mix.add(InstrClass.LDG128, ldg)
        mix.add(InstrClass.STS, ldg)
        # LHS fragment replicated 4x across groups -> 4 LDS streams
        mix.add(InstrClass.LDS, wmma_groups * 4.0)
        mix.add(InstrClass.BAR, active * k_steps * 2.0)
        mix.add(InstrClass.IMAD, active * k_steps * 4.0)
        mix.add(InstrClass.IADD3, active * k_steps * 2.0)
        mix.add(InstrClass.MISC, active * 12.0)
        mix.add(InstrClass.BRANCH, active * k_steps)
        mix.add(InstrClass.STG, nnz * v * eb / (32 * 4))

        gm = GlobalTraffic()
        gm.load_requests = ldg
        gm.store_requests = float(mix[InstrClass.STG])
        gm.load_sectors = (a_bytes + b_bytes) / 32.0
        gm.store_sectors = nnz * v * eb / 32.0
        gm.bytes_requested = a_bytes + b_bytes + nnz * v * eb
        mask_density = nnz / max(1.0, float(win.num_vector_rows) * n)
        b_fetched = coresident_reuse_bytes(
            b_bytes,
            num_groups=max(1, launch.num_ctas // 16),
            density=max(1e-9, mask_density),
            group_rows=16,
            l1_effective_bytes=max(
                32 * 1024,
                spec.l1_bytes_per_sm - 16 * (v + self.TILE_N) * self.TILE_K * eb,
            ),
        )
        gm.bytes_l2_to_l1 = a_bytes + b_fetched + nnz * v * eb
        unique = (m + n) * k * eb + mask.nnz * eb
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        # LHS copied 4x: 4 x (V x 16 / 32) halves per lane + accumulators
        regs = 32 + 4 * v + 2 * v
        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=regs,
                shared_bytes_per_cta=(v + self.TILE_N) * self.TILE_K * eb,
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=460),
            flops=2.0 * nnz * v * k,
            ilp=3.0,
            stall_correlation=0.45,  # staging barriers per k-step
        )
        stats.shared_mem.bulk(
            requests=int(mix[InstrClass.LDS]), wavefronts_per_request=1.3, bytes_per_request=128
        )
        stats.shared_mem.bulk(
            requests=int(ldg), wavefronts_per_request=1.0, bytes_per_request=512, is_store=True
        )
        return stats
