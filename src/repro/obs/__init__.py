"""End-to-end observability for the simulator stack.

Two halves behind one switch (``REPRO_TRACE=1`` or
:func:`enable`):

* :mod:`repro.obs.tracing` — nested spans with monotonic-clock
  timing, exported as Chrome trace-event JSON
  (``chrome://tracing``/Perfetto) or a human tree.
* :mod:`repro.obs.metrics` — counters/gauges/histograms snapshotted
  to ``metrics.json`` and merged into the runner's ``manifest.json``.

Both are near-zero-overhead no-ops while disabled (the default), so
the hot paths — kernel dispatch, the memo layer, trace replay, the
experiment runner, the serving simulator, the profiler — carry their
instrumentation permanently.  ``python -m repro.cli obs`` runs any
experiment under the tracer and emits timeline + metrics + a slowest
spans table; see ``docs/OBSERVABILITY.md``.
"""

from . import metrics, tracing
from .tracing import (
    disable,
    drain,
    enable,
    enabled,
    export_chrome_trace,
    ingest,
    render_tree,
    reset,
    set_enabled,
    slowest_table,
    span,
    traced,
    validate_chrome_trace,
)

__all__ = [
    "metrics",
    "tracing",
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "reset",
    "span",
    "traced",
    "drain",
    "ingest",
    "export_chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "slowest_table",
]
