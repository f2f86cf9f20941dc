"""Full-stream twins of the memoised trace-replay entry points.

The ``trace_*`` entry points of :mod:`repro.perfmodel.trace` hand
their generator the SM sample, so only the sampled CTAs' sector
arrays are built.  These twins replay the full generator stream (every
CTA built) with the same :func:`~repro.perfmodel.trace.replay_l1`
settings; each entry point must return an equal
:class:`~repro.perfmodel.trace.TraceResult`, ``total_ctas`` included.
"""

from __future__ import annotations

from repro.perfmodel.trace import (
    TraceResult,
    blocked_ell_cta_sectors,
    gemm_cta_sectors,
    octet_sddmm_cta_sectors,
    octet_spmm_cta_sectors,
    replay_l1,
    trace_blocked_ell,
    trace_gemm,
    trace_octet_sddmm,
    trace_octet_spmm,
    trace_wmma_sddmm,
    wmma_sddmm_cta_sectors,
)

__all__ = ["TRACE_TWINS", "trace_args"]


def _octet_spmm(a, n, tile_n=64, elem_bytes=2, sample_sms=2) -> TraceResult:
    return replay_l1(octet_spmm_cta_sectors(a, n, tile_n=tile_n, elem_bytes=elem_bytes),
                     sample_sms=sample_sms)


def _blocked_ell(ell, n, sample_sms=2) -> TraceResult:
    return replay_l1(blocked_ell_cta_sectors(ell, n), coresident=4,
                     l1_data_bytes=32 * 1024, sample_sms=sample_sms)


def _octet_sddmm(mask, k, sample_sms=2) -> TraceResult:
    return replay_l1(octet_sddmm_cta_sectors(mask, k), sample_sms=sample_sms)


def _wmma_sddmm(mask, k, sample_sms=2) -> TraceResult:
    return replay_l1(wmma_sddmm_cta_sectors(mask, k), sample_sms=sample_sms)


def _gemm(m, k, n, elem_bytes=2, sample_sms=2) -> TraceResult:
    tile_m = 128 if elem_bytes <= 2 else 64
    return replay_l1(gemm_cta_sectors(m, k, n, tile_m=tile_m, tile_n=128,
                                      elem_bytes=elem_bytes), sample_sms=sample_sms)


#: entry point -> its full-stream twin (same arguments)
TRACE_TWINS = {
    trace_octet_spmm: _octet_spmm,
    trace_blocked_ell: _blocked_ell,
    trace_octet_sddmm: _octet_sddmm,
    trace_wmma_sddmm: _wmma_sddmm,
    trace_gemm: _gemm,
}


def trace_args(a, ell, n: int) -> dict:
    """Entry point -> its arguments on CVSE ``a`` (also the SDDMM mask,
    with ``n`` as K), Blocked-ELL ``ell`` and output width ``n``."""
    return {
        trace_octet_spmm: (a, n),
        trace_blocked_ell: (ell, n),
        trace_octet_sddmm: (a, n),
        trace_wmma_sddmm: (a, n),
        trace_gemm: (a.shape[0], n, a.shape[1]),
    }
