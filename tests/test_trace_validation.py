"""Trace-driven validation of the analytic traffic model.

Replays the kernels' real sector streams through the L1 simulator and
compares against the closed-form ``bytes_l2_to_l1`` estimates.  The
Blocked-ELL kernel (little reuse to model) must agree tightly; the
octet kernel's analytic reuse is calibrated against the *paper's*
measured behaviour, which reflects stronger column correlation than
the synthetic DLMC topologies — so its tolerance is wider and
documented (see EXPERIMENTS.md, "Known model gaps").
"""

import numpy as np
import pytest

from repro.datasets import generate_topology
from repro.formats import blocked_ell_matching, cvse_from_csr_topology
from repro.kernels import BlockedEllSpmmKernel, OctetSpmmKernel
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.perfmodel.trace import (
    TraceResult,
    blocked_ell_cta_sectors,
    gemm_cta_sectors,
    octet_sddmm_cta_sectors,
    octet_spmm_cta_sectors,
    replay_l1,
    replay_l1_reference,
    trace_gemm,
    wmma_sddmm_cta_sectors,
)

RNG = np.random.default_rng(42)
N = 256


def _loads(stats):
    return stats.global_mem.bytes_l2_to_l1 - stats.global_mem.store_sectors * 32


@pytest.fixture(scope="module")
def problem():
    topo = generate_topology((512, 1024), 0.9, RNG)
    a = cvse_from_csr_topology(topo, 4, RNG)
    ell = blocked_ell_matching(a, RNG)
    return a, ell


class TestBlockedEllTrace:
    def test_matches_analytic_closely(self, problem):
        _, ell = problem
        tr = replay_l1(blocked_ell_cta_sectors(ell, N), coresident=4,
                       l1_data_bytes=32 * 1024, sample_sms=2)
        analytic = _loads(BlockedEllSpmmKernel().stats_for(ell, N))
        assert tr.bytes_l2_to_l1 == pytest.approx(analytic, rel=0.25)

    def test_covers_all_ctas(self, problem):
        _, ell = problem
        tr = replay_l1(blocked_ell_cta_sectors(ell, N), sample_sms=1)
        assert tr.total_ctas == ell.num_block_rows * (N // 128)


class TestOctetTrace:
    def test_same_order_of_magnitude(self, problem):
        a, _ = problem
        tr = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=2)
        analytic = _loads(OctetSpmmKernel().stats_for(a, N))
        # synthetic topologies under-correlate columns vs real DLMC:
        # the trace runs hotter, within a bounded factor
        assert 0.7 < tr.bytes_l2_to_l1 / analytic < 2.2

    def test_reuse_materialises(self, problem):
        """The co-resident CTAs must show *some* L1 sharing — the
        mechanism §3.1 contrasts against the dense GEMM."""
        a, _ = problem
        tr = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=1)
        assert tr.l1_hit_rate > 0.15

    def test_reuse_grows_with_sparsity(self):
        hits = []
        for s in (0.8, 0.95):
            topo = generate_topology((256, 1024), s, np.random.default_rng(1))
            a = cvse_from_csr_topology(topo, 4, np.random.default_rng(1))
            tr = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=1)
            hits.append(tr.l1_hit_rate)
        assert hits[1] > hits[0]

    def test_vector_sparse_not_worse_than_blocked_ell(self, problem):
        """The Figure 18 claim, on the trace simulator this time."""
        a, ell = problem
        tr_vec = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=2)
        tr_ell = replay_l1(blocked_ell_cta_sectors(ell, N), coresident=4,
                           l1_data_bytes=32 * 1024, sample_sms=2)
        assert tr_vec.bytes_l2_to_l1 <= tr_ell.bytes_l2_to_l1 * 1.1


class TestReplayRegression:
    """The rewritten replay must equal the pinned reference.

    ``replay_l1_reference`` keeps the original per-op scalar walk
    (``pop(0)`` interleave, one ``access_sectors`` call per op); the
    production path precomputes the interleave and feeds whole
    co-resident windows through the vectorised engine in one batch.
    ``TraceResult`` equality here pins both the interleave-order
    refactor and the batched L1 -> L2 propagation.
    """

    def test_octet_stream(self, problem):
        a, _ = problem
        ref = replay_l1_reference(octet_spmm_cta_sectors(a, N), sample_sms=2)
        vec = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=2)
        assert ref == vec

    def test_blocked_ell_stream(self, problem):
        _, ell = problem
        kw = dict(coresident=4, l1_data_bytes=32 * 1024, sample_sms=2)
        ref = replay_l1_reference(blocked_ell_cta_sectors(ell, N), **kw)
        vec = replay_l1(blocked_ell_cta_sectors(ell, N), **kw)
        assert ref == vec

    def test_sddmm_stream(self, problem):
        a, _ = problem
        ref = replay_l1_reference(octet_sddmm_cta_sectors(a, N), sample_sms=1)
        vec = replay_l1(octet_sddmm_cta_sectors(a, N), sample_sms=1)
        assert ref == vec

    def test_scalar_engine_matches_reference(self, problem):
        # engine="scalar" isolates the interleave/batching refactor
        # from the vectorised cache: same scalar cache, new plumbing
        a, _ = problem
        ref = replay_l1_reference(octet_spmm_cta_sectors(a, N), sample_sms=1)
        new = replay_l1(octet_spmm_cta_sectors(a, N), sample_sms=1,
                        engine="scalar")
        assert ref == new


class TestSddmmTrace:
    K = 256

    def test_covers_all_ctas(self, problem):
        a, _ = problem
        tr = replay_l1(octet_sddmm_cta_sectors(a, self.K), sample_sms=1)
        n_windows = -(-a.shape[1] // 32)
        assert tr.total_ctas == n_windows * a.num_vector_rows

    def test_empty_windows_produce_no_ops(self):
        # a mask with a single nonzero: every other window replays as
        # an empty CTA (yielded, but no sectors)
        rng = np.random.default_rng(0)
        topo = generate_topology((8, 512), 0.99, rng)
        a = cvse_from_csr_topology(topo, 4, rng)
        stream = list(octet_sddmm_cta_sectors(a, 64))
        assert len(stream) == (-(-a.shape[1] // 32)) * a.num_vector_rows
        empty = [ops for _, ops in stream if not ops]
        nonempty = [ops for _, ops in stream if ops]
        assert empty and nonempty  # both kinds are yielded
        assert all(sum(s.size for s in ops) > 0 for ops in nonempty)

    def test_b_column_reuse_materialises(self, problem):
        # co-resident vector rows of one window gather overlapping
        # B columns — the reuse §6.4 stages through registers
        a, _ = problem
        tr = replay_l1(octet_sddmm_cta_sectors(a, self.K), sample_sms=1)
        assert tr.l1_hit_rate > 0.1

    def test_same_ballpark_as_analytic(self, problem):
        a, _ = problem
        tr = replay_l1(octet_sddmm_cta_sectors(a, self.K), sample_sms=2)
        analytic = _loads(OctetSddmmKernel().stats_for(a, self.K))
        assert 0.5 < tr.bytes_l2_to_l1 / analytic < 3.0

    def test_wmma_stream_pattern_identical(self, problem):
        # the WMMA kernel moves the same global bytes; the kernels
        # differ in staging (L1 carveout / window depth), not pattern
        a, _ = problem
        oct_ops = [(c, [s.tolist() for s in ops])
                   for c, ops in octet_sddmm_cta_sectors(a, 64)]
        wmma_ops = [(c, [s.tolist() for s in ops])
                    for c, ops in wmma_sddmm_cta_sectors(a, 64)]
        assert oct_ops == wmma_ops


class TestGemmTrace:
    def test_cta_count(self):
        tr = replay_l1(gemm_cta_sectors(256, 128, 256, tile_m=128, tile_n=128),
                       sample_sms=1)
        assert tr.total_ctas == 2 * 2

    def test_superlinear_miss_reduction_single_to_half(self):
        # Figure 5: halving the element size more than halves the
        # missed sectors (the single-precision tile also shrinks)
        single = trace_gemm(2048, 1024, 256, elem_bytes=4)
        half = trace_gemm(2048, 1024, 256, elem_bytes=2)
        reduction = 1 - half.l1_missed_sectors / single.l1_missed_sectors
        assert 0.5 < reduction < 0.8


class TestTraceMachinery:
    def test_empty_stream(self):
        tr = replay_l1(iter([]))
        assert tr.bytes_l2_to_l1 == 0.0
        assert tr.l1_hit_rate == 0.0

    def test_scaling(self):
        res = TraceResult(sampled_ctas=10, total_ctas=100,
                          sampled_fill_bytes=320, sector_accesses=20)
        assert res.bytes_l2_to_l1 == 3200
        assert res.l1_hit_rate == pytest.approx(0.5)

    def test_l2_scaling_and_missed_sectors(self):
        res = TraceResult(sampled_ctas=10, total_ctas=100,
                          sampled_fill_bytes=640, sector_accesses=40,
                          sampled_l2_fill_bytes=320)
        assert res.bytes_dram_to_l2 == 3200
        assert res.l1_missed_sectors == res.bytes_l2_to_l1 / 32

