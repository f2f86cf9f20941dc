"""Declared observability naming schema.

Every span, counter, gauge and histogram name the system emits is
declared here, and every declared name is one the system emits.
``tests/test_lint_contracts.py`` checks both directions by running
the code: it traces a run set that drives every emission site, the
failure paths of the experiment pool included, and matches each name
it records against these patterns.

Patterns: names are dotted lowercase ``<subsystem>.<thing>``; a ``*``
segment matches exactly one dynamic segment (an f-string hole at the
emission site, e.g. ``memo.{region}.hits`` matches ``memo.*.hits``).

``DERIVED`` maps each derived metric computed in ``metrics.snapshot()``
to the counter patterns it divides; each must be a declared counter, so
a counter rename fails the check instead of silently zeroing a
hit-rate.
"""

from __future__ import annotations

SPANS = [
    "run_all",
    "experiment.*",
    "kernel.spmm",
    "kernel.sddmm",
    "kernel.sparse_softmax",
    "kernel.dense_gemm",
    "memo.miss.*",
    "memo.shared.read.*",
    "memo.shared.publish.*",
    "trace.replay",
    "serving.run",
    "profiler.capture",
    "profiler.kernel.*",
]

COUNTERS = [
    "kernel.dispatch.spmm",
    "kernel.dispatch.sddmm",
    "kernel.dispatch.sparse_softmax",
    "kernel.dispatch.dense_gemm",
    "trace.replay.runs",
    "trace.replay.sector_accesses",
    "pool.tasks",
    "pool.errors",
    "pool.crashes",
    "memo.*.hits",
    "memo.*.misses",
    "memo.shared.*.hits",
    "memo.shared.*.misses",
    "memo.scoped.*.served",
    "memo.scoped.*.lookups",
    "cache.*.sector_accesses",
    "cache.*.sector_hits",
    "cache.*.line_fills",
    "cache.*.writeback_sectors",
    "serving.requests.offered",
    "serving.requests.admitted",
    "serving.requests.completed",
    "serving.requests.expired",
    "serving.requests.failed",
    "serving.shed.admission",
    "serving.shed.queue",
    "serving.batches",
    "serving.retries",
    "serving.hedges",
    "serving.faults.injected",
    "serving.faults.detected",
    "profiler.kernels.profiled",
    "profiler.check.changes",
]

GAUGES = [
    "pool.workers",
    "experiment.*.seconds",
    "serving.degradation.level",
]

HISTOGRAMS = [
    "hmma.batch_size",
    "trace.replay.batch_size",
    "experiment.seconds",
    "serving.batch.tokens",
]

DERIVED = {
    "memo.hit_rate": ["memo.*.hits", "memo.*.misses"],
    "memo.plan.hit_rate": ["memo.*.hits", "memo.*.misses"],
    "memo.shared.hit_rate": ["memo.shared.*.hits", "memo.shared.*.misses"],
}
