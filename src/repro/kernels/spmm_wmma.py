"""TCU-based 1-D Warp Tiling SpMM — the classic-mapping baseline (§5.2).

Good kernel/compute efficiency (CTA-level 1-D tiles, wmma.m8n32k16),
but a sub-optimal memory path: the classic warp-tile-to-TCU mapping
leaves each lane holding 4 registers per RHS row, so direct loads are
LDG.64 at best and only 64B coalesced (guideline V violated), and
``TileK`` must be a multiple of 16, inflating residue handling.  When
``V < 8`` part of every wmma is wasted computation.

Used as an ablation point between the FPU baseline and the octet
kernel (DESIGN.md ablation index).
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
from ..perfmodel.reuse import coresident_reuse_bytes, work_imbalance
from .. import plans as _plans
from .base import Kernel, Precision, require_values
from .functional import spmm_functional

__all__ = ["WmmaSpmmKernel"]


class WmmaSpmmKernel(Kernel):
    """SpMM with the classic GEMM-like warp-tile-to-TCU mapping."""

    TILE_N = 64
    TILE_K = 16          # wmma.m8n32k16 step granularity
    CTA_SIZE = 32

    efficiency = 0.70

    def __init__(
        self,
        spec: GPUSpec | None = None,
        precision: Precision = "half",
        simulate: bool = False,
    ) -> None:
        if precision != "half":
            raise ValueError("wmma baseline is a half-precision design")
        super().__init__(spec, precision)
        self.name = "spmm-wmma-warp"
        self.simulate = simulate

    def _execute(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> np.ndarray:
        if self.simulate:
            return self._execute_simulated(a, b)
        return spmm_functional(a, b, self.precision)

    def _execute_simulated(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> np.ndarray:
        """Compiled-plan walk: the whole structure's wmma.m8n32k16
        stream in one batched call per N tile, driven by a cached
        execution plan (:mod:`repro.plans`) — bit-for-bit the
        interpreted per-row walk kept as a test oracle
        (``tests/oracles``).
        """
        b16 = np.asarray(b, dtype=np.float16)
        plan = _plans.spmm_wmma_plan(self, a)
        out, tc = _plans.execute_spmm_wmma(plan, a, b16)
        self.last_sim_stats = tc
        return out.astype(np.float16)

    def _stats(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> KernelStats:
        return self.stats_for(a, np.asarray(b).shape[1])

    @memo.memoised_stats
    def stats_for(self, a: ColumnVectorSparseMatrix, n: int) -> KernelStats:
        require_values(a, self.name)
        spec = self.spec
        eb = 2
        v = a.vector_length
        m, k = a.shape
        row_nnz = a.vector_row_nnz().astype(np.float64)
        n_tiles = ceil_div(n, self.TILE_N)
        launch = LaunchConfig(grid_x=a.num_vector_rows, grid_y=n_tiles, cta_size=self.CTA_SIZE)

        # TileK must be a multiple of 16: rows round up to 16-vector steps
        k_steps = np.ceil(row_nnz / 16.0)
        steps_total = float(k_steps.sum()) * n_tiles
        nnz_total = float(row_nnz.sum()) * n_tiles

        mix = InstructionMix()
        # wmma.m8n32k16 computes an (8x16)·(16x32) tile = 16 warp HMMA
        # steps; the 64-wide warp tile needs 2 per k-step.  For V < 8
        # the 8-row slot is padded: computation is wasted, instructions
        # are not removed.
        wmma_per_step = 2.0
        mix.add(InstrClass.HMMA, steps_total * wmma_per_step * 16.0)
        # RHS fragment: per k-step, 16 rows x 64 halves loaded LDG.64,
        # 64B coalesced -> 2x the requests of the octet design
        rhs_bytes_per_step = 16 * self.TILE_N * eb
        mix.add(InstrClass.LDG64, steps_total * rhs_bytes_per_step / (32 * 8))
        # LHS values + indices via shared
        lhs_bytes = 16.0 * v * eb
        mix.add(InstrClass.LDG128, steps_total * max(1.0, lhs_bytes / 512.0))
        mix.add(InstrClass.LDG32, steps_total)
        mix.add(InstrClass.STS, steps_total * max(1.0, lhs_bytes / 512.0))
        mix.add(InstrClass.LDS, steps_total * 2.0)
        mix.add(InstrClass.BAR, steps_total)
        mix.add(InstrClass.IMAD, steps_total * 6.0)
        mix.add(InstrClass.IADD3, steps_total * 2.0)
        mix.add(InstrClass.MISC, steps_total * 4.0 + launch.num_ctas * 12.0)
        mix.add(InstrClass.BRANCH, steps_total)
        out_bytes_per_cta = v * self.TILE_N * eb
        mix.add(InstrClass.STG, launch.num_ctas * max(1.0, out_bytes_per_cta / 512.0))

        gm = GlobalTraffic()
        gm.load_requests = float(
            mix[InstrClass.LDG32] + mix[InstrClass.LDG64] + mix[InstrClass.LDG128]
        )
        gm.store_requests = float(mix[InstrClass.STG])
        # LDG.64 over 8 lanes/row: 64B coalesced -> 8 sectors per request
        gm.load_sectors = steps_total * rhs_bytes_per_step / 32.0 + steps_total * (
            (lhs_bytes + 64.0) / 32.0
        )
        gm.store_sectors = launch.num_ctas * out_bytes_per_cta / 32.0
        # padded k-steps fetch B rows for padding lanes too
        gm.bytes_requested = steps_total * rhs_bytes_per_step + nnz_total * (v * eb + 4.0)
        coresident = 32
        b_requested = steps_total * rhs_bytes_per_step
        density = min(1.0, float(row_nnz.mean()) / k) if k else 1.0
        b_fetched = coresident_reuse_bytes(
            b_requested,
            num_groups=max(1, launch.num_ctas // coresident),
            density=density,
            group_rows=coresident,
            l1_effective_bytes=spec.l1_bytes_per_sm - (int(lhs_bytes) + 64) * coresident,
        )
        stream = nnz_total * (v * eb + 4.0) + launch.num_ctas * out_bytes_per_cta
        gm.bytes_l2_to_l1 = b_fetched + stream
        unique = a.memory_bytes() + k * n * eb + m * n * eb
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        regs = 40 + 2 * v
        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=regs,
                shared_bytes_per_cta=int(lhs_bytes) + 64,
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=520),
            flops=2.0 * nnz_total * v * self.TILE_N,
            ilp=3.0,
            stall_correlation=0.5,  # per-step barriers around the staging
            work_imbalance=work_imbalance(np.tile(row_nnz, n_tiles), spec.num_sms),
        )
        stats.shared_mem.bulk(
            requests=int(steps_total * 2), wavefronts_per_request=1.0, bytes_per_request=int(lhs_bytes)
        )
        return stats
