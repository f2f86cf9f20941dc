from ..obs import tracing
from ..obs.tracing import traced
from . import memo
from .memo import memoised


@traced("build.stats")
@memoised("stats")
def build_stats(spec):  # finding
    return spec


@tracing.traced("build.trace")
@memo.memoised_rng("trace")
def build_trace(spec, rng):  # finding
    return spec


@memoised("latency")
@traced("build.latency")
def build_latency(spec):
    return spec


@traced("plain")
def plain_span(spec):
    return spec
