"""FPU-based 1-D Subwarp Tiling SpMM — the Sputnik-extended baseline (§5.1).

The original Sputnik kernel (V = 1, fine-grained) is the same design;
the extension handles column vectors of length V.  The configuration
modelled is the paper's *tuned* one (§7.2.2): "#Subwarp = 1 to improve
the grid size ... at the cost of using shorter vector memory
operations" — one 32-thread subwarp per CTA, ``TileN = 64``, each lane
owning two output columns, so RHS loads are LDG.32 over 32 consecutive
4-byte lanes (Sectors/Req ~= 4, the red entry in Table 2).

Performance character (why the octet kernel beats it):

* the fully unrolled V x TileK x TileN loops blow the SASS size past
  the L0 i-cache (3776 lines at V=4, 6968 at V=8 — §7.2.2), causing
  "No Instruction" stalls;
* every multiply-accumulate is an HMUL2 + two FADDs (fp32
  accumulation to control error) plus the IMAD/IADD3 addressing
  chains — the "Wait" stalls of Table 2;
* under single precision (the Figure 4 Sputnik baseline) the math is
  FFMA and operands are twice as wide.
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
from .base import Kernel, Precision, elem_bytes, require_values, sparse_a_bytes
from .counting import sputnik_sass_lines
from .functional import spmm_functional

__all__ = ["FpuSpmmKernel"]


class FpuSpmmKernel(Kernel):
    """SpMM on the FPU with 1-D subwarp tiling (extended Sputnik)."""

    TILE_N = 64
    TILE_K = 32
    CTA_SIZE = 32        # tuned: one subwarp per CTA

    efficiency = 0.70

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "half") -> None:
        super().__init__(spec, precision)
        self.name = "spmm-fpu-subwarp" if precision == "half" else "sputnik-spmm-sp"

    # ------------------------------------------------------------------ #
    def _execute(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> np.ndarray:
        require_values(a, self.name)
        out_dtype = np.float16 if self.precision == "half" else np.float32
        return spmm_functional(a, b, self.precision, out_dtype=out_dtype)

    # ------------------------------------------------------------------ #
    def _stats(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> KernelStats:
        return self.stats_for(a, np.asarray(b).shape[1])

    @memo.memoised_stats
    def stats_for(self, a: ColumnVectorSparseMatrix, n: int) -> KernelStats:
        spec = self.spec
        eb = elem_bytes(self.precision)
        v = a.vector_length
        m, k = a.shape
        row_nnz = a.vector_row_nnz().astype(np.float64)
        n_tiles = ceil_div(n, self.TILE_N)
        launch = LaunchConfig(grid_x=a.num_vector_rows, grid_y=n_tiles, cta_size=self.CTA_SIZE)

        nnz_total = float(row_nnz.sum()) * n_tiles
        strides_total = float(np.ceil(row_nnz / self.TILE_K).sum()) * n_tiles

        cols_per_lane = self.TILE_N // 32  # 2 output columns per lane
        mix = InstructionMix()
        # math per nonzero vector: V x TileN MACs; per lane V x 2.
        if self.precision == "half":
            # packed HMUL2 (2 columns at once) + fp32 FADD per MAC + the
            # F2F conversions Sputnik inserts to accumulate in fp32 (§3.1)
            mix.add(InstrClass.HMUL2, nnz_total * v)
            mix.add(InstrClass.FADD, nnz_total * v * cols_per_lane)
            mix.add(InstrClass.F2F, nnz_total * v * 0.5)
        else:
            mix.add(InstrClass.FFMA, nnz_total * v * cols_per_lane)
        # RHS: per vector, each lane loads its 2 columns: 32 lanes x 4B
        # = one LDG.32 (half) / two LDG.32 (single) — 128B coalesced.
        mix.add(InstrClass.LDG32, nnz_total * (1.0 if eb == 2 else 2.0))
        # LHS values + indices staged to shared per stride
        lhs_bytes = self.TILE_K * v * eb
        mix.add(InstrClass.LDG128, strides_total * max(1.0, lhs_bytes / 512.0))
        mix.add(InstrClass.LDG32, strides_total)  # column indices
        mix.add(InstrClass.STS, strides_total * max(1.0, lhs_bytes / 512.0))
        mix.add(InstrClass.LDS, nnz_total)        # re-read value + index per vector
        mix.add(InstrClass.BAR, strides_total)
        # addressing: per-vector offset math is the kernel's Achilles heel
        mix.add(InstrClass.IMAD, nnz_total * 2.0)
        mix.add(InstrClass.IADD3, nnz_total * 1.0)
        mix.add(InstrClass.MISC, strides_total * 4.0 + launch.num_ctas * 10.0)
        mix.add(InstrClass.BRANCH, strides_total)
        out_bytes_per_cta = v * self.TILE_N * eb
        mix.add(InstrClass.STG, launch.num_ctas * max(1.0, out_bytes_per_cta / 512.0))

        gm = GlobalTraffic()
        gm.load_requests = float(
            mix[InstrClass.LDG32] + mix[InstrClass.LDG64] + mix[InstrClass.LDG128]
        )
        gm.store_requests = float(mix[InstrClass.STG])
        # each per-vector RHS request covers 128 B = 4 sectors (the
        # Sectors/Req ~ 4 row of Table 2)
        gm.load_sectors = nnz_total * (128.0 * (1 if eb == 2 else 2)) / 32.0 + strides_total * (
            (lhs_bytes + self.TILE_K * 4) / 32.0
        )
        gm.store_sectors = launch.num_ctas * out_bytes_per_cta / 32.0
        gm.bytes_requested = (
            nnz_total * self.TILE_N * eb
            + nnz_total * (v * eb + 4.0) / max(1, n_tiles) * n_tiles
            + launch.num_ctas * out_bytes_per_cta
        )
        # same small-CTA inter-CTA L1 sharing as the octet kernel —
        # memory-side the FPU design is healthy (its losses are
        # instruction-side, §7.2.2)
        coresident = 32
        b_requested = nnz_total * self.TILE_N * eb
        density = min(1.0, float(row_nnz.mean()) / k) if k else 1.0
        b_fetched = coresident_reuse_bytes(
            b_requested,
            num_groups=max(1, launch.num_ctas // coresident),
            density=density,
            group_rows=coresident,
            # Sputnik configures a large shared-memory carveout for
            # its double-buffered staging, leaving ~32 KiB of data L1 —
            # which is why §3.1 finds its miss-rate benefit from
            # reduced precision "limited" (48.8% vs GEMM's 77%).
            l1_effective_bytes=32 * 1024,
        )
        stream_bytes = nnz_total * (v * eb + 4.0) + launch.num_ctas * out_bytes_per_cta
        gm.bytes_l2_to_l1 = b_fetched + stream_bytes
        unique = sparse_a_bytes(a) + k * n * eb + m * n * eb
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        # registers: V x 2 fp32 accumulators + unrolled operand buffers
        regs = 28 + 2 * v * cols_per_lane + 2 * v
        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=min(regs, 255),
                shared_bytes_per_cta=lhs_bytes + self.TILE_K * 4,
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=sputnik_sass_lines(v)),
            flops=2.0 * nnz_total * v * self.TILE_N,
            ilp=2.0,  # the compiler serialises the unrolled MAC chains
            stall_correlation=0.35,  # per-stride barriers around the LHS stage
            work_imbalance=work_imbalance(np.tile(row_nnz, n_tiles), spec.num_sms),
        )
        stats.shared_mem.bulk(
            requests=int(nnz_total), wavefronts_per_request=1.0, bytes_per_request=v * eb + 4
        )
        stats.shared_mem.bulk(
            requests=int(strides_total),
            wavefronts_per_request=1.0,
            bytes_per_request=lhs_bytes,
            is_store=True,
        )
        return stats
