"""TCU-based 1-D Octet Tiling SpMM — the paper's primary SpMM kernel (§5.3-5.4).

Launch shape (§5.4): ``TileN = 64``, CTA = 32 threads (one warp), grid
``ceil(M/V) x ceil(N/64)``; each CTA produces one ``V x 64`` output
tile.

Per ``TileK`` stride over the vector row's nonzeros:

* the **LHS fragment** (the ``TileK`` nonzero V-vectors, Figure 11 (1))
  is staged to shared memory cooperatively — it is reused by all four
  octets, so guideline IV sends it through shared memory;
* per ``mma.m8n8k4`` (which consumes 4 nonzero vectors), each thread
  group loads its share of the ``64 x 4`` **RHS fragment** (Figure 11
  (2)) straight into registers with a single ``LDG.128`` — 8 lanes per
  column of 64 consecutive halves, four 128B-coalesced transactions
  (guidelines IV + V);
* the warp then issues the HMMA steps with the LHS/RHS roles *switched*
  so that V lies along the TCU's output columns; when ``V <= 4`` steps
  2-3 produce unused columns (removable only with a SASS assembler —
  §7.1.3 keeps them, and so does this model);
* all ``TileK/4`` loads are issued before a ``__threadfence_block()``
  and the HMMAs after it, preventing register reuse from serialising
  the chain (§5.4) — modelled as a high ``ilp``.

The ``simulate`` mode walks CTAs and issues real
:func:`~repro.hardware.tensor_core.mma_m8n8k4` octet operations on the
switched fragments; it is bit-compatible with the fast functional path
up to fp32 reassociation and is used by the tests to pin the mapping.
"""

from __future__ import annotations

import numpy as np

from ..faults.injector import site as fault_site
from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.config import GPUSpec
from ..hardware.icache import ICacheModel
from ..hardware.instructions import InstrClass, InstructionMix
from ..hardware.register_file import KernelResources
from ..perfmodel import memo
from ..hardware.thread_hierarchy import LaunchConfig, ceil_div
from ..perfmodel.events import GlobalTraffic, KernelStats, estimate_dram_bytes
from ..perfmodel.reuse import coresident_reuse_bytes, work_imbalance
from .. import plans as _plans
from .base import Kernel, Precision, require_values, sparse_a_bytes
from .functional import spmm_functional

__all__ = ["OctetSpmmKernel"]


class OctetSpmmKernel(Kernel):
    """SpMM with column-vector sparse encoding on the octet tiling."""

    TILE_N = 64
    TILE_K = 32          # nonzero vectors per shared-memory stage
    CTA_SIZE = 32

    efficiency = 0.70

    def __init__(
        self,
        spec: GPUSpec | None = None,
        precision: Precision = "half",
        simulate: bool = False,
    ) -> None:
        if precision != "half":
            raise ValueError("the octet kernel is a half-precision design (HMMA.884)")
        super().__init__(spec, precision)
        self.name = "spmm-mma-octet"
        self.simulate = simulate

    # ------------------------------------------------------------------ #
    def _execute(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> np.ndarray:
        require_values(a, self.name)
        if self.simulate:
            return self._execute_simulated(a, b)
        return spmm_functional(a, b, self.precision)

    def _execute_simulated(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> np.ndarray:
        """Compiled-plan walk: the whole structure's mma.m8n8k4 stream
        in one batched call per N tile, driven by a cached execution
        plan (:mod:`repro.plans`) — bit-for-bit the interpreted
        per-row walk kept as a test oracle (``tests/oracles``).
        The issued-HMMA accounting of the last run is kept on
        ``self.last_sim_stats``.
        """
        v = a.vector_length
        if v > 8:
            raise ValueError("octet tiling supports V <= 8 (one TCU output tile)")
        b16 = np.asarray(b, dtype=np.float16)
        plan = _plans.spmm_octet_plan(self, a)
        out, tc_stats = _plans.execute_spmm_octet(plan, a, b16)
        self.last_sim_stats = tc_stats
        # declared fault-injection site: accumulator writeback SDC
        return fault_site("spmm_octet.acc", out.astype(np.float16))

    # ------------------------------------------------------------------ #
    def _stats(self, a: ColumnVectorSparseMatrix, b: np.ndarray) -> KernelStats:
        n = np.asarray(b).shape[1]
        return self.stats_for(a, n)

    @memo.memoised_stats
    def stats_for(self, a: ColumnVectorSparseMatrix, n: int) -> KernelStats:
        """Analytic device statistics for ``A[CVSE] @ B[K x n]``."""
        spec = self.spec
        eb = 2  # half precision
        v = a.vector_length
        m, k = a.shape
        row_nnz = a.vector_row_nnz().astype(np.float64)
        n_tiles = ceil_div(n, self.TILE_N)
        launch = LaunchConfig(grid_x=a.num_vector_rows, grid_y=n_tiles, cta_size=self.CTA_SIZE)

        # per vector-row counts (vectorised over rows, then summed).
        # Each group of 4 nonzero vectors is one (64x4)·(4xV) step; a
        # warp-wide mma.m8n8k4 covers 32 of the 64 switched-LHS rows
        # (4 octets x 8 rows), so each group issues 2 mma instructions
        # = 8 HMMA steps — this reproduces the paper's measured HMMA
        # counts (429,504 for V=4 / 215,104 for V=8 on the §7.2.2
        # benchmark, vs 421K/211K modelled).
        quad_groups_per_row = np.ceil(row_nnz / 4.0)
        strides_per_row = np.ceil(row_nnz / self.TILE_K)
        quad_groups = float(quad_groups_per_row.sum()) * n_tiles
        mma_total = 2.0 * quad_groups
        strides_total = float(strides_per_row.sum()) * n_tiles
        nnz_total = float(row_nnz.sum()) * n_tiles

        mix = InstructionMix()
        mix.add(InstrClass.HMMA, 4.0 * mma_total)          # 4 steps, none removed (§7.1.3)
        mix.add(InstrClass.LDG128, quad_groups)            # 64x4 RHS fragment: 512B = 1 LDG.128
        # LHS stage: TileK vectors of V halves + TileK column indices
        lhs_bytes_per_stride = self.TILE_K * (v * eb)
        idx_bytes_per_stride = self.TILE_K * 4
        mix.add(InstrClass.LDG128, strides_total * max(1.0, lhs_bytes_per_stride / 512.0))
        mix.add(InstrClass.LDG32, strides_total)           # indices: 32 lanes x 4B
        mix.add(InstrClass.STS, strides_total * max(1.0, lhs_bytes_per_stride / 512.0))
        mix.add(InstrClass.LDS, mma_total)                 # A fragment per mma
        mix.add(InstrClass.MEMBAR, strides_total)          # the ILP fence (§5.4)
        # addressing: the fixed TCU pattern removes most index math (guideline III)
        mix.add(InstrClass.IMAD, strides_total * 4.0 + mma_total)
        mix.add(InstrClass.IADD3, strides_total * 2.0)
        mix.add(InstrClass.MISC, strides_total * 3.0 + launch.num_ctas * 12.0)
        mix.add(InstrClass.BRANCH, strides_total)
        # epilogue: shuffle-reorganised vector stores (§5.4)
        out_bytes_per_cta = v * self.TILE_N * eb
        mix.add(InstrClass.SHFL, launch.num_ctas * max(2.0, v / 2.0))
        mix.add(InstrClass.STG, launch.num_ctas * max(1.0, out_bytes_per_cta / 512.0))

        gm = GlobalTraffic()
        gm.load_requests = float(mix[InstrClass.LDG128] + mix[InstrClass.LDG32])
        gm.store_requests = float(mix[InstrClass.STG])
        # RHS fragments: 512B over 16 sectors; LHS/idx: contiguous
        gm.load_sectors = (
            quad_groups * 16.0
            + strides_total * (lhs_bytes_per_stride / 32.0 + idx_bytes_per_stride / 32.0)
        )
        gm.store_sectors = launch.num_ctas * out_bytes_per_cta / 32.0
        gm.bytes_requested = (
            nnz_total * (self.TILE_N * eb)            # B rows
            + nnz_total * (v * eb + 4) / n_tiles * n_tiles  # values + indices
            + launch.num_ctas * out_bytes_per_cta
        )
        # B-row re-fetches are served by the L1 shared across the ~32
        # co-resident 32-thread CTAs (consecutive vector rows of the
        # same column tile): the inter-CTA reuse that gives this kernel
        # GEMM-like cache behaviour (Figures 5/18).
        coresident = 32  # register-limited occupancy caps at the CTA limit
        b_requested = nnz_total * self.TILE_N * eb
        density = min(1.0, float(row_nnz.mean()) / k) if k else 1.0
        b_fetched = coresident_reuse_bytes(
            b_requested,
            num_groups=max(1, launch.num_ctas // coresident),
            density=density,
            group_rows=coresident,
            l1_effective_bytes=spec.l1_bytes_per_sm - self.TILE_K * v * eb * coresident,
        )
        stream_bytes = nnz_total * (v * eb + 4.0) + launch.num_ctas * out_bytes_per_cta
        gm.bytes_l2_to_l1 = b_fetched + stream_bytes
        unique = (sparse_a_bytes(a) + k * n * eb + m * n * eb)
        gm.bytes_dram_to_l2 = estimate_dram_bytes(unique, gm.bytes_l2_to_l1, spec.l2_bytes)

        # registers: V x 64 fp32 accumulators / 32 lanes = 2V, plus the
        # deliberately-unreused operand registers of the TileK/4 batch
        regs = 26 + 2 * v + self.TILE_K // 4
        stats = KernelStats(
            name=self.name,
            launch=launch,
            resources=KernelResources(
                cta_size=self.CTA_SIZE,
                registers_per_thread=regs,
                shared_bytes_per_cta=self.TILE_K * v * eb,
            ),
            instructions=mix,
            global_mem=gm,
            # §7.2.2: 384 lines (V=4), 416 (V=8): short, fits L0 easily
            program=ICacheModel(sass_lines=352 + 8 * v),
            flops=2.0 * nnz_total * v * self.TILE_N,
            ilp=float(self.TILE_K // 4),  # batched loads before the fence
            stall_correlation=0.15,       # no barriers, only the membar fence
            work_imbalance=work_imbalance(np.tile(row_nnz, n_tiles), spec.num_sms),
        )
        stats.shared_mem.bulk(
            requests=int(mma_total), wavefronts_per_request=1.0, bytes_per_request=4 * v * eb * 8
        )
        stats.shared_mem.bulk(
            requests=int(strides_total),
            wavefronts_per_request=1.0,
            bytes_per_request=lhs_bytes_per_stride,
            is_store=True,
        )
        return stats
