"""Tests for the performance model: stalls, latency bounds, reuse, batching."""

import pytest

from repro.hardware import ICacheModel, InstrClass, InstructionMix, KernelResources, LaunchConfig
from repro.perfmodel import (
    GlobalTraffic,
    KernelStats,
    LatencyModel,
    compute_stalls,
    estimate_dram_bytes,
    scale_batch,
)
from repro.perfmodel.reuse import compulsory_ratio, coresident_reuse_bytes


def simple_stats(
    hmma=0.0, ffma=0.0, ldg=0.0, lds=0.0, bar=0.0, imad=0.0,
    ctas=2048, cta_size=32, regs=48, shared=0, sass=300,
    l2_bytes=1e6, dram_bytes=1e5, correlation=0.2, ilp=4.0,
):
    mix = InstructionMix()
    for cls, n in (
        (InstrClass.HMMA, hmma), (InstrClass.FFMA, ffma), (InstrClass.LDG128, ldg),
        (InstrClass.LDS, lds), (InstrClass.BAR, bar), (InstrClass.IMAD, imad),
    ):
        if n:
            mix.add(cls, n)
    gm = GlobalTraffic(
        load_requests=ldg, load_sectors=ldg * 16, bytes_requested=ldg * 512,
        bytes_l2_to_l1=l2_bytes, bytes_dram_to_l2=dram_bytes,
    )
    return KernelStats(
        name="test",
        launch=LaunchConfig(grid_x=ctas, cta_size=cta_size),
        resources=KernelResources(cta_size, regs, shared),
        instructions=mix,
        global_mem=gm,
        program=ICacheModel(sass_lines=sass),
        flops=2.0 * hmma * 256,
        ilp=ilp,
        stall_correlation=correlation,
    )


class TestEstimateDramBytes:
    def test_fits_in_cache(self):
        assert estimate_dram_bytes(1e6, 1e8, 6 * 2**20) == 1e6

    def test_exceeds_cache_partial_hits(self):
        unique, stream, cap = 12e6, 100e6, 6 * 2**20
        out = estimate_dram_bytes(unique, stream, cap)
        assert unique < out < stream

    def test_dram_never_exceeds_l2_stream(self):
        # DRAM traffic flows through L2: the estimate is capped by the
        # stream even when the matrices' total footprint is larger
        assert estimate_dram_bytes(1e6, 1e5, 6 * 2**20) == 1e5

    def test_monotone_in_stream(self):
        cap = 6 * 2**20
        a = estimate_dram_bytes(20e6, 50e6, cap)
        b = estimate_dram_bytes(20e6, 100e6, cap)
        assert b > a


class TestReuseModel:
    def test_single_cta_no_reuse(self):
        assert compulsory_ratio(0.1, 1) == pytest.approx(1.0)

    def test_many_rows_high_density_shares(self):
        # 32 rows at density 0.1: ratio = (1 - 0.9^32)/3.2 ~ 0.30
        assert compulsory_ratio(0.1, 32) == pytest.approx(0.302, abs=0.01)

    def test_ratio_bounds(self):
        for p in (0.01, 0.1, 0.5, 1.0):
            for g in (1, 4, 32):
                r = compulsory_ratio(p, g)
                assert 0 < r <= 1.0

    def test_capacity_clamp(self):
        # tiny L1: reuse mostly lost
        big = coresident_reuse_bytes(1e8, 100, 0.1, 32, l1_effective_bytes=1e3)
        small = coresident_reuse_bytes(1e8, 100, 0.1, 32, l1_effective_bytes=1e7)
        assert big > small

    def test_zero_requested(self):
        assert coresident_reuse_bytes(0, 10, 0.1, 32, 1e5) == 0


class TestStallModel:
    def test_integer_heavy_raises_wait(self):
        lean = compute_stalls(simple_stats(hmma=1e6, imad=1e4))
        heavy = compute_stalls(simple_stats(hmma=1e6, imad=1e6))
        assert heavy.wait > lean.wait

    def test_lds_raises_short_scoreboard(self):
        none = compute_stalls(simple_stats(hmma=1e6))
        some = compute_stalls(simple_stats(hmma=1e6, lds=2e5))
        assert some.short_scoreboard > none.short_scoreboard

    def test_correlated_stalls_not_hidden(self):
        s = compute_stalls(simple_stats(hmma=1e6, lds=5e5, correlation=1.0))
        vis_corr = sum(s.visible(8.0).values())
        s.stall_correlation = 0.0
        vis_indep = sum(s.visible(8.0).values())
        assert vis_corr > vis_indep
        assert vis_indep == pytest.approx(vis_corr / 8.0)

    def test_issued_fraction_bounds(self):
        s = compute_stalls(simple_stats(hmma=1e6, lds=5e5, imad=5e5))
        f = s.issued_fraction(8.0)
        assert 0 < f <= 1

    def test_fractions_sum_below_one(self):
        s = compute_stalls(simple_stats(hmma=1e6, lds=2e5, imad=2e5, sass=5000))
        fr = s.fractions(4.0)
        total = sum(v for k, v in fr.items())
        assert total == pytest.approx(1.0, abs=0.15)


class TestLatencyModel:
    def test_tensor_bound_kernel(self):
        st = simple_stats(hmma=4e6, l2_bytes=1e5, dram_bytes=1e4)
        est = LatencyModel(efficiency=1.0).estimate(st)
        assert est.limiter.startswith("pipe:tensor") or est.limiter == "issue"

    def test_memory_bound_kernel(self):
        st = simple_stats(hmma=1e3, ldg=1e3, l2_bytes=5e8, dram_bytes=4e8)
        est = LatencyModel().estimate(st)
        assert est.limiter in ("l2", "dram")

    def test_more_work_more_time(self):
        t1 = LatencyModel().estimate(simple_stats(hmma=1e5)).time_us
        t2 = LatencyModel().estimate(simple_stats(hmma=1e6)).time_us
        assert t2 > t1

    def test_launch_overhead_floor(self):
        est = LatencyModel().estimate(simple_stats(hmma=10, ctas=1))
        assert est.time_us >= 2.2

    def test_efficiency_scales_compute_not_memory(self):
        st = simple_stats(hmma=1e3, l2_bytes=5e8)
        hi = LatencyModel(efficiency=1.0).estimate(st)
        lo = LatencyModel(efficiency=0.5).estimate(st)
        # memory-bound: only the overlap slack on secondary bounds moves
        assert lo.time_us <= hi.time_us * 1.4

    def test_small_grid_penalty(self):
        # same total work on 8 CTAs vs 800 CTAs: small grid is slower
        big = simple_stats(hmma=1e6, ctas=800)
        small = simple_stats(hmma=1e6, ctas=8)
        t_big = LatencyModel().estimate(big).time_us
        t_small = LatencyModel().estimate(small).time_us
        assert t_small > t_big

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            LatencyModel(efficiency=0.0)
        with pytest.raises(ValueError):
            LatencyModel(efficiency=1.2)


class TestScaleBatch:
    def test_counts_scale(self):
        st = simple_stats(hmma=1e4, ldg=1e3)
        b = scale_batch(st, 32)
        assert b.instructions.total == pytest.approx(32 * st.instructions.total)
        assert b.launch.num_ctas == 32 * st.launch.num_ctas
        assert b.global_mem.bytes_l2_to_l1 == 32 * st.global_mem.bytes_l2_to_l1
        assert b.flops == 32 * st.flops

    def test_identity_for_one(self):
        st = simple_stats(hmma=1e4)
        assert scale_batch(st, 1) is st

    def test_batched_faster_than_serial_small_grids(self):
        st = simple_stats(hmma=1e5, ctas=16)
        model = LatencyModel()
        serial = 32 * model.estimate(st).time_us
        batched = model.estimate(scale_batch(st, 32)).time_us
        assert batched < serial

