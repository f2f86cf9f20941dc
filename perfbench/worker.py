"""One benchmark process: set a workload up, measure its passes, check them.

``run.py`` starts this in a fresh interpreter::

    python3 perfbench/worker.py WORKLOAD SEED PASSES MODE T0

``MODE`` is ``setup`` (set up, report ``setup_s``, exit), ``run``
(measure untraced) or ``traced`` (run each pass both with the layer
wrappers installed and without them).  ``T0`` is the parent's ``time.monotonic()`` just before it
started this interpreter, so ``setup_s`` covers interpreter start-up,
imports, inputs and warm-up.  The result is the last line of stdout,
as JSON; the program's own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent


def probe_s() -> float:
    """Seconds one fresh ``probe.py`` interpreter takes right now."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), repr(t0)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["probe_s"]


#: inside a pass, a workload's tick runs a probe once this many seconds
#: of work have passed since the last one
PROBE_EVERY_S = 1.5


class ProbedClock:
    """Times untraced passes in segments, with ``probe.py`` runs between
    the segments whose own time is not counted.  A probe point runs
    ``per_end`` probes before the first pass and after every pass, and
    one at a tick inside a pass, so a long pass is split into segments
    of a few seconds, each with probes on both sides of it."""

    def __init__(self, per_end: int) -> None:
        self.per_end = per_end
        self.points: List[List[float]] = [[probe_s() for _ in range(per_end)]]
        self.segments: List[List[float]] = []  # per pass, in order

    def start(self) -> None:
        self.segments.append([])
        self.t0 = time.perf_counter()

    def tick(self, end: bool = False) -> None:
        now = time.perf_counter()
        seconds = now - self.t0
        if end or seconds >= PROBE_EVERY_S:
            self.segments[-1].append(seconds)
            self.points.append([probe_s() for _ in range(self.per_end if end else 1)])
            self.t0 = time.perf_counter()

    def stop(self) -> float:
        self.tick(end=True)
        return sum(self.segments[-1])


def _no_tick() -> None:
    pass


def _pass(workload, i: int, tracer=None, clock=None):
    """One pass from a cold memo: its output, seconds and memo counters.
    With a tracer, the layer wrappers are installed for this pass only;
    with a clock, the pass is timed in probed segments."""
    from repro.perfmodel import memo

    if tracer is not None:
        tracer.install()
    try:
        memo.clear()
        if clock is not None:
            clock.start()
            out = workload.run_pass(i, clock.tick)
            return out, clock.stop(), memo.counters()
        t0 = time.perf_counter()
        out = workload.run_pass(i, _no_tick)
        return out, time.perf_counter() - t0, memo.counters()
    finally:
        if tracer is not None:
            tracer.uninstall()


def _measure(workload, passes: int, tracer) -> dict:
    """Measure ``passes`` passes.  Untraced, a ``ProbedClock`` times them
    (two probes per end point when there is only one pass).  With a
    tracer, every pass runs twice in one interpreter, traced and
    untraced, in alternating order starting with the traced one, so the
    tracer's overhead is a paired in-process ratio; a one-pass run
    charges any first-pass cost to the tracer."""
    outputs, pass_s, base_outputs, base_s = [], [], [], []
    memo_counts: dict = {}
    clock = ProbedClock(max(1, 2 // passes)) if tracer is None else None
    for i in range(passes):
        if tracer is not None and i % 2:
            out, dur, _ = _pass(workload, i)
            base_outputs.append(out)
            base_s.append(dur)
        out, dur, counts = _pass(workload, i, tracer, clock)
        outputs.append(out)
        pass_s.append(dur)
        for region, (hits, misses) in counts.items():
            h, m = memo_counts.get(region, (0, 0))
            memo_counts[region] = (h + hits, m + misses)
        if tracer is not None and not i % 2:
            out, dur, _ = _pass(workload, i)
            base_outputs.append(out)
            base_s.append(dur)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"outputs": outputs, "pass_s": pass_s, "memo": memo_counts,
            "probes": clock.points if clock else [], "segments": clock.segments if clock else [],
            "base_outputs": base_outputs, "base_s": base_s, "peak_rss_mb": peak_rss_mb}


def main(argv) -> int:
    name, seed, passes, mode, t0 = argv[0], int(argv[1]), int(argv[2]), argv[3], float(argv[4])
    import paper
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    with contextlib.redirect_stdout(sys.stderr):
        workload.setup(seed, passes)
        setup_s = time.monotonic() - t0
        if mode == "setup":
            result = {"setup_s": setup_s}
        else:
            tracer = None
            if mode == "traced":
                import layers

                tracer = layers.Tracer()
            run = _measure(workload, passes, tracer)
            check = workload.check(run["outputs"])
            result = {
                "setup_s": setup_s,
                "pass_s": run["pass_s"],
                "probes": run["probes"],
                "segments": run["segments"],
                "peak_rss_mb": run["peak_rss_mb"],
                "attempted": check.attempted,
                "failed": check.failed,
                "errors": check.errors,
                "digest": check.digest,
                "extra": check.extra,
                "memo": run["memo"],
                "paper_log_err": paper.paper_log_err(paper.table4_ratios()),
            }
            if tracer is not None:
                base = workload.check(run["base_outputs"])
                terms = paper.sim_terms()
                errors = check.errors + base.errors + paper.sim_sum_errors(terms)
                if base.digest != check.digest:
                    errors.append("traced results differ from the untraced passes'")
                result.update(
                    self_s=dict(tracer.self_s), calls=dict(tracer.calls),
                    fired=tracer.fired, unfired=tracer.unfired(name),
                    base_s=run["base_s"], sim=terms, errors=errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
