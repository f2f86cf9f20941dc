"""cuSPARSE analogs: Blocked-ELL SpMM and fine-grained CSR SpMM/SDDMM.

``BlockedEllSpmmKernel`` models the TCU kernel behind
``cusparseSpMM`` on Blocked-ELL input (§3.2), the paper's structured
TCU baseline ("blocked-ELL" in Figures 6/17, Tables 1/2).  Its three
measured pathologies are modelled explicitly:

* a ~4600-line SASS body that thrashes the 768-entry L0 i-cache
  ("No Instruction" 42.6% at block 4);
* heavy IMAD/IADD3 tile-address arithmetic ("Wait" 21.0%);
* both operands staged through shared memory behind barriers with
  little reuse (shared/global load ratio 0.87, "Short Scoreboard"
  11.9%) — which also shrinks the usable L1;
* at block sizes below the native wmma grain the TCU computes padded
  tiles: the waste factor is 8x at B=4, 2x at B=8, 1x at B=16 — the
  shape of Figure 6.

``CusparseCsrSpmmKernel`` / ``CusparseSddmmKernel`` model the
fine-grained CSR kernels used in Figure 4.  They share the Sputnik
dataflow but with scalar (non-vector) loads and heavier per-nonzero
index processing — cuSPARSE targets >= 95% sparsity and is slower than
Sputnik below that (§2.3), except SDDMM at single precision where
v11.2.2 is ahead (§3.1 footnote).
"""

from __future__ import annotations

import numpy as np

from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.csr import CSRMatrix
from ..hardware.config import GPUSpec
from ..hardware.icache import ICacheModel
from ..hardware.instructions import InstrClass, InstructionMix
from ..hardware.register_file import KernelResources
from ..hardware.thread_hierarchy import LaunchConfig, ceil_div
from ..perfmodel import memo
from ..perfmodel.events import GlobalTraffic, KernelStats, estimate_dram_bytes
from ..perfmodel.reuse import coresident_reuse_bytes
from . import functional as _functional
from .base import Kernel, Precision, as_compute, elem_bytes

__all__ = ["BlockedEllSpmmKernel", "CusparseCsrSpmmKernel", "CusparseSddmmKernel"]


def _tcu_waste(block: int) -> float:
    """HMMA padding waste of the wmma-based Blocked-ELL kernel."""
    if block >= 16:
        return 1.0
    if block >= 8:
        return 2.0
    return 8.0  # B=4: k padded 4x, m padded 2x


class BlockedEllSpmmKernel(Kernel):
    """cusparseSpMM on Blocked-ELL input (half precision, TCU)."""

    TILE_N = 128
    CTA_SIZE = 128

    efficiency = 0.70

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "half") -> None:
        if precision != "half":
            raise ValueError("the Blocked-ELL SpMM of §3.2 is the half-precision TCU path")
        super().__init__(spec, precision)
        self.name = "cusparse-blocked-ell"

    def _execute(self, a: BlockedEllMatrix, b: np.ndarray) -> np.ndarray:
        a32 = as_compute(a.to_dense(np.float32), self.precision)
        b32 = as_compute(np.asarray(b), self.precision)
        return (a32 @ b32).astype(np.float16)

    def _stats(self, a: BlockedEllMatrix, b: np.ndarray) -> KernelStats:
        return self.stats_for(a, np.asarray(b).shape[1])

    def stats_for(self, a: BlockedEllMatrix, n: int) -> KernelStats:
        """Analytic device statistics for ``A[Blocked-ELL] @ B[K x n]``.

        The model reads only A's shape, block size and ELL width (see
        :meth:`stats_for_shape`); the §3.2 kernel is half-only, so A
        must hold fp16 values.
        """
        if a.values.dtype != np.float16:
            raise ValueError(
                f"the Blocked-ELL SpMM of §3.2 reads fp16 blocks, got {a.values.dtype} values"
            )
        return self.stats_for_shape(a.shape[0], a.shape[1], a.block_size, a.ell_width, n)

    @memo.memoised_stats
    def stats_for_shape(self, m: int, k: int, block_size: int, ell_width: int,
                        n: int) -> KernelStats:
        """Statistics for an ``(m, k)`` fp16 Blocked-ELL A with ``ell_width``
        stored ``block_size``-square blocks per block row, times ``B[k x n]``.

        Equal to :meth:`stats_for` on any such matrix, without building
        one: the column choices and values never enter the model.
        """
        spec = self.spec
        eb = 2
        bsz = block_size
        rows_b = m // bsz
        n_tiles = ceil_div(n, self.TILE_N)
        launch = LaunchConfig(grid_x=rows_b, grid_y=n_tiles, cta_size=self.CTA_SIZE)
        warps = launch.total_warps

        blocks_total = float(rows_b * ell_width) * n_tiles  # incl. padding
        nnz_scalars = blocks_total * bsz * bsz

        mix = InstructionMix()
        macs = nnz_scalars * self.TILE_N
        mix.add(InstrClass.HMMA, macs * _tcu_waste(bsz) / 256.0)
        # both operands staged through shared memory (guideline IV violated)
        a_bytes = nnz_scalars * eb
        b_bytes = blocks_total * bsz * self.TILE_N * eb
        ldg = (a_bytes + b_bytes) / (32 * 16)
        mix.add(InstrClass.LDG128, ldg)
        mix.add(InstrClass.STS, ldg)
        mix.add(InstrClass.LDS, ldg * 0.87)  # the measured reuse-starved ratio
        mix.add(InstrClass.BAR, blocks_total / max(1.0, ell_width) * 2.0 + blocks_total * 0.5)
        # tile-address arithmetic: the IMAD/IADD3-heavy SASS (27.4% of
        # executed instructions at block 4, §3.2)
        addr = (mix.total) * 0.38
        mix.add(InstrClass.IMAD, addr * 0.7)
        mix.add(InstrClass.IADD3, addr * 0.3)
        mix.add(InstrClass.MISC, blocks_total * 2.0 + warps * 10.0)
        out_bytes = float(m) * n * eb
        mix.add(InstrClass.STG, out_bytes / (32 * 16))

        gm = GlobalTraffic()
        gm.load_requests = ldg
        gm.store_requests = float(mix[InstrClass.STG])
        # ideal wide loads: one 32 B sector per 32 useful bytes (a
        # sector count *below* the delivered bytes is unphysical — the
        # near-ideal coalescing shows up as 16 sectors/request, not as
        # sub-byte sectors)
        gm.load_sectors = (a_bytes + b_bytes) / 32.0
        gm.store_sectors = out_bytes / 32.0
        gm.bytes_requested = a_bytes + b_bytes + out_bytes
        # inter-CTA reuse is poor: only ~4 big CTAs fit per SM (their
        # 24 KiB staging buffers), and the shared-memory carveout
        # leaves little L1 for implicit reuse (§3.2's last point).
        coresident = 4
        l1_eff = max(16 * 1024, spec.l1_bytes_per_sm - coresident * 24 * 1024)
        density = min(1.0, ell_width / max(1, k // bsz))
        b_fetched = coresident_reuse_bytes(
            b_bytes,
            num_groups=max(1, launch.num_ctas // coresident),
            density=density,
            group_rows=coresident,
            l1_effective_bytes=l1_eff,
        )
        gm.bytes_l2_to_l1 = a_bytes + b_fetched + out_bytes
        # encoded A (int64 block columns + fp16 blocks, as memory_bytes())
        a_encoded = rows_b * ell_width * (8 + bsz * bsz * eb)
        unique = a_encoded + k * n * eb + out_bytes
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=64,
                shared_bytes_per_cta=24 * 1024,  # large staging buffers
            ),
            instructions=mix,
            global_mem=gm,
            # §3.2: 4600 SASS lines at block 4, re-fetched every main-loop
            # trip; larger blocks specialise to shorter bodies
            program=ICacheModel(
                sass_lines=4600 if bsz <= 4 else (2400 if bsz <= 8 else 700),
                loop_back=True,
            ),
            flops=2.0 * nnz_scalars * self.TILE_N,
            ilp=2.0,  # barrier-separated stages serialise load/compute
            stall_correlation=0.85,  # warps stall in lockstep at barriers
        )
        stats.shared_mem.bulk(
            requests=int(mix[InstrClass.LDS]), wavefronts_per_request=1.2, bytes_per_request=32 * 4
        )
        stats.shared_mem.bulk(
            requests=int(ldg), wavefronts_per_request=1.0, bytes_per_request=32 * 16, is_store=True
        )
        return stats


class CusparseCsrSpmmKernel(Kernel):
    """cusparseSpMM on fine-grained CSR (Figure 4 baseline)."""

    TILE_N = 32
    CTA_SIZE = 64

    efficiency = 0.70

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "single") -> None:
        super().__init__(spec, precision)
        self.name = f"cusparse-csr-spmm-{'hp' if precision == 'half' else 'sp'}"

    def _execute(self, a: CSRMatrix, b: np.ndarray) -> np.ndarray:
        b32 = as_compute(np.asarray(b), self.precision)
        out = a.to_scipy().astype(np.float32) @ b32
        return out.astype(np.float16 if self.precision == "half" else np.float32)

    def _stats(self, a: CSRMatrix, b: np.ndarray) -> KernelStats:
        return self.stats_for(a, np.asarray(b).shape[1])

    @memo.memoised_stats
    def stats_for(self, a: CSRMatrix, n: int) -> KernelStats:
        spec = self.spec
        eb = elem_bytes(self.precision)
        m, k = a.shape
        n_tiles = ceil_div(n, self.TILE_N)
        rows_per_cta = self.CTA_SIZE // 32
        launch = LaunchConfig(
            grid_x=ceil_div(m, rows_per_cta), grid_y=n_tiles, cta_size=self.CTA_SIZE
        )
        nnz_total = float(a.nnz) * n_tiles
        cols_per_lane = self.TILE_N / 32.0

        mix = InstructionMix()
        mix.add(InstrClass.FFMA, nnz_total * cols_per_lane)
        if self.precision == "half":
            mix.add(InstrClass.F2F, nnz_total * cols_per_lane)  # unpack/pack halves
        # scalar gathers: value + index + B element per nonzero; the
        # merge-path bookkeeping costs ~3 integer ops per nonzero
        mix.add(InstrClass.LDG32, nnz_total * 2.0)
        mix.add(InstrClass.IMAD, nnz_total * 2.0)
        mix.add(InstrClass.IADD3, nnz_total * 1.5)
        mix.add(InstrClass.LOP3, nnz_total * 0.5)
        mix.add(InstrClass.MISC, nnz_total * 1.0 + launch.num_ctas * 12.0)
        out_bytes = float(m) * n * eb
        mix.add(InstrClass.STG, out_bytes / (32 * 4))

        gm = GlobalTraffic()
        gm.load_requests = float(mix[InstrClass.LDG32])
        gm.store_requests = float(mix[InstrClass.STG])
        # B gathers land scattered: ~1 sector per request at high sparsity
        gm.load_sectors = nnz_total * (self.TILE_N * eb / 32.0 + 1.0)
        gm.store_sectors = out_bytes / 32.0
        gm.bytes_requested = nnz_total * (self.TILE_N * eb + eb + 4.0) + out_bytes
        gm.bytes_l2_to_l1 = nnz_total * (self.TILE_N * eb + eb + 4.0) * 0.9 + out_bytes
        unique = a.memory_bytes() + k * n * eb + out_bytes
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE, registers_per_thread=48, shared_bytes_per_cta=4096
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=980, loop_back=True),
            flops=2.0 * nnz_total * self.TILE_N,
            ilp=2.0,
            stall_correlation=0.4,
        )
        return stats


class CusparseSddmmKernel(Kernel):
    """cusparseSDDMM on fine-grained CSR (single precision only, §2.3)."""

    CTA_SIZE = 128

    efficiency = 0.70

    def __init__(self, spec: GPUSpec | None = None, precision: Precision = "single") -> None:
        if precision != "single":
            raise ValueError("cusparseSDDMM supports single or higher precision only (§2.3)")
        super().__init__(spec, precision)
        self.name = "cusparse-sddmm-sp"

    def _execute(self, a: np.ndarray, b: np.ndarray, mask: CSRMatrix) -> CSRMatrix:
        a32 = as_compute(np.asarray(a), self.precision)
        bt32 = as_compute(np.asarray(b), self.precision).T.copy()  # rows = B columns
        rows = np.repeat(np.arange(mask.shape[0]), mask.row_nnz())
        vals = _functional._sddmm_gathered_dot(a32, bt32, rows, mask.col_idx)
        return CSRMatrix(mask.shape, mask.row_ptr, mask.col_idx, vals)

    def _stats(self, a: np.ndarray, b: np.ndarray, mask: CSRMatrix) -> KernelStats:
        return self.stats_for(mask, np.asarray(a).shape[1])

    @memo.memoised_stats
    def stats_for(self, mask: CSRMatrix, k: int) -> KernelStats:
        spec = self.spec
        eb = 4
        m, n = mask.shape
        launch = LaunchConfig(grid_x=ceil_div(m, 4), cta_size=self.CTA_SIZE)
        nnz = float(mask.nnz)

        mix = InstructionMix()
        # k-long dot product per output nonzero, warp-reduced
        mix.add(InstrClass.FFMA, nnz * k / 32.0)
        mix.add(InstrClass.LDG128, nnz * k * eb * 2.0 / (32 * 16))
        mix.add(InstrClass.SHFL, nnz * 5.0 / 32.0 * 32.0 / 32.0 * 5.0)  # log2(32) rounds
        mix.add(InstrClass.FADD, nnz * 5.0)
        mix.add(InstrClass.IMAD, nnz * 2.0)
        mix.add(InstrClass.IADD3, nnz * 1.0)
        mix.add(InstrClass.MISC, nnz * 1.0 + launch.num_ctas * 12.0)
        mix.add(InstrClass.STG, nnz * eb / (32 * 4))

        gm = GlobalTraffic()
        gm.load_requests = float(mix[InstrClass.LDG128])
        gm.store_requests = float(mix[InstrClass.STG])
        gm.load_sectors = nnz * k * eb * 2.0 / 32.0
        gm.store_sectors = nnz * eb / 32.0
        gm.bytes_requested = nnz * k * eb * 2.0 + nnz * eb
        gm.bytes_l2_to_l1 = gm.bytes_requested * 0.7  # rows shared across warp
        unique = (m + n) * k * eb + nnz * eb
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        return KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE, registers_per_thread=56, shared_bytes_per_cta=2048
            ),
            instructions=mix,
            global_mem=gm,
            program=ICacheModel(sass_lines=720),
            flops=2.0 * nnz * k,
            ilp=3.0,
            stall_correlation=0.3,
        )
