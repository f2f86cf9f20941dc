"""Hardware configuration for the simulated Volta-class GPU.

The paper evaluates on an NVIDIA V100 (Volta).  All architectural
constants used by the functional and performance models live here so
that a single :class:`GPUSpec` instance threads through the whole
simulator.  Numbers follow the Volta whitepaper [NVIDIA17]_ and the
microbenchmark study of Jia et al. [Jia18]_ that the paper cites for the
L0 instruction-cache capacity and memory-hierarchy organisation.

.. [NVIDIA17] "V100 GPU Architecture: The world's most advanced
   datacenter GPU", NVIDIA, 2017.
.. [Jia18] Jia, Maggioni, Staiger, Scarpazza, "Dissecting the NVIDIA
   Volta GPU architecture via microbenchmarking", arXiv:1804.06826.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Static description of the simulated GPU.

    All throughput figures are *per SM per cycle* unless stated
    otherwise; the latency model multiplies by ``num_sms`` and the clock
    to obtain device-level figures.
    """

    name: str = "V100-SXM2-16GB"

    # --- chip organisation -------------------------------------------------
    num_sms: int = 80
    subcores_per_sm: int = 4
    clock_ghz: float = 1.53          # boost clock used for peak numbers

    # --- thread hierarchy limits -------------------------------------------
    warp_size: int = 32
    threads_per_group: int = 4       # "thread group" = 4 consecutive lanes
    groups_per_warp: int = 8         # -> 2 octets control 1 TCU, 4 octets/warp
    max_threads_per_cta: int = 1024
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_ctas_per_sm: int = 32

    # --- register file ------------------------------------------------------
    registers_per_sm: int = 65536    # 32-bit registers
    max_registers_per_thread: int = 255
    register_alloc_unit: int = 256   # per-warp allocation granularity

    # --- memory hierarchy ----------------------------------------------------
    dram_bytes: int = 16 * 2**30
    dram_bandwidth_gbs: float = 900.0
    l2_bytes: int = 6 * 2**20
    l2_bandwidth_gbs: float = 2700.0   # read-heavy sectored streams; Jia et al.
                                       # measure 2.15 TB/s with mixed patterns,
                                       # pure reads run ~25% higher
    l1_bytes_per_sm: int = 128 * 2**10  # unified L1/shared
    max_shared_per_sm: int = 96 * 2**10
    sector_bytes: int = 32             # L1/L2 sector granularity
    line_bytes: int = 128              # cache line = 4 sectors, 128B transaction
    l1_ways: int = 4
    shared_banks: int = 32
    shared_bank_bytes: int = 4
    # peak shared-memory bandwidth: 128 B/cycle/SM (one 32x4B conflict-free
    # wavefront per cycle)
    shared_bytes_per_cycle: float = 128.0
    # L1 <-> core: four 32B sectors per cycle per SM
    l1_bytes_per_cycle: float = 128.0

    # --- instruction delivery -------------------------------------------------
    instr_bytes: int = 16              # Volta: one 128-bit word per instruction
    l0_icache_bytes: int = 12 * 2**10  # per sub-core; 768 instructions
    l1_icache_bytes: int = 128 * 2**10 # per SM (approx.; shared among subcores)
    icache_miss_penalty_cycles: float = 30.0

    # --- execution pipes (warp-instruction throughput per SM per cycle) -------
    issue_rate: float = 4.0            # 4 schedulers, 1 instr/cycle each
    fma_fp32_rate: float = 2.0         # 64 FP32 lanes -> 2 warp FFMA/cycle
    fma_fp16_rate: float = 2.0         # packed half2 pipe shares FP32 lanes
    alu_int_rate: float = 2.0          # IMAD/IADD3 use the FMA pipe on Volta
    tensor_hmma_rate: float = 2.0      # 8 TCs/SM -> 2 warp-wide HMMA.884/cycle
    lsu_rate: float = 1.0              # one LD/ST warp instruction per cycle
    sfu_rate: float = 0.25
    shuffle_rate: float = 1.0          # SHFL shares the LSU datapath

    # --- instruction latencies (cycles) ---------------------------------------
    lat_fma: float = 4.0
    lat_alu: float = 4.0               # IMAD dependent-issue latency ~4-5
    lat_hmma: float = 8.0              # back-to-back dependent HMMA
    lat_shared: float = 25.0           # LDS load-to-use
    lat_l1: float = 32.0
    lat_l2: float = 190.0
    lat_dram: float = 440.0
    lat_shuffle: float = 25.0
    lat_barrier: float = 30.0

    # --- kernel launch --------------------------------------------------------
    launch_overhead_us: float = 2.2

    # ----- derived helpers ----------------------------------------------------
    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes

    @property
    def l0_icache_instrs(self) -> int:
        """Instructions resident in the per-sub-core L0 i-cache (768 on Volta)."""
        return self.l0_icache_bytes // self.instr_bytes

    @property
    def dram_bytes_per_cycle_per_sm(self) -> float:
        return self.dram_bandwidth_gbs / (self.clock_ghz * self.num_sms)

    @property
    def l2_bytes_per_cycle_per_sm(self) -> float:
        return self.l2_bandwidth_gbs / (self.clock_ghz * self.num_sms)

    @property
    def octets_per_warp(self) -> int:
        return self.groups_per_warp // 2

    def peak_tensor_tflops(self) -> float:
        """Peak FP16 tensor-core throughput in TFLOP/s.

        2 warp HMMA/cycle/SM x 256 MAC/HMMA x 2 FLOP/MAC.
        """
        macs = self.tensor_hmma_rate * 256.0
        return 2.0 * macs * self.num_sms * self.clock_ghz / 1e3

    def peak_fp32_tflops(self) -> float:
        """Peak FP32 FMA throughput in TFLOP/s."""
        return 2.0 * self.fma_fp32_rate * self.warp_size * self.num_sms * self.clock_ghz / 1e3

    def peak_fp16_tflops(self) -> float:
        """Peak packed-FP16 FMA (non-tensor) throughput in TFLOP/s."""
        return 2.0 * self.peak_fp32_tflops()

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Default device used throughout the library.
VOLTA_V100 = GPUSpec()


def default_spec() -> GPUSpec:
    """The GPU the paper evaluates on (V100)."""
    return VOLTA_V100
