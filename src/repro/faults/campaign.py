"""SDC campaigns: measure the sanitizer's detection coverage.

A campaign sweeps seeded injections over the declared sites
(injections x kernel x checker) and scores each: did the checker that
owns the corrupted artifact actually report a finding?  Coverage is
aggregated per checker and compared against the documented floors
(``docs/ROBUSTNESS.md``), so a sanitizer regression that silently
stops detecting corruption fails ``repro.cli faults`` the same way a
dirty kernel fails ``repro.cli sanitize``.

Two campaigns are registered:

* ``smoke``   — only the *guaranteed-detection* fault classes (bit
  flips caught by the bit-exact ownership differential, out-of-extent
  sectors, unphysical counters, memo blob corruption).  Floor: 100%
  per checker; runs in CI.
* ``default`` — adds the *subtle* classes (low-bit sector flips that
  stay in bounds, few-percent counter scalings, tolerance-checked
  functional outputs), where escapes are expected and the measured
  floors document how much silent corruption the sanitizer family
  provably catches.
* ``serving-overload`` — the serving layer's fault sites (worker
  stalls, latency spikes, corrupted batch results) scored for
  detection *and* recovery under seeded overload: corruption never
  served, hedges recover stalled batches, SLOs hold through spikes,
  degradation sheds with typed outcomes and a replayable ledger.

Determinism: every injection derives its seed from the campaign seed,
the target index and the repetition index; corruption choices all flow
through ``np.random.default_rng``.  Two runs with the same seed yield
identical records — pinned by ``tests/test_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..kernels.cases import cvse_operand, mask_operand
from ..kernels.functional import spmm_functional
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from ..perfmodel import memo, sharedmemo, trace
from ..profiler.report import format_table
from ..sanitizer import memcheck, racecheck, statcheck
from .injector import FaultInjector

__all__ = [
    "InjectionRecord",
    "CampaignResult",
    "CampaignSpec",
    "CAMPAIGNS",
    "run_campaign",
]


# --------------------------------------------------------------------- #
# seeded problems (small: a campaign runs hundreds of kernel executions)
# --------------------------------------------------------------------- #
def _spmm_problem(seed: int, v: int = 4, m: int = 32, k: int = 64, n: int = 128):
    rng = np.random.default_rng(seed)
    keep = rng.random((m // v, k)) < 0.4
    keep[:, 0] = True  # every vector row live: no all-zero output rows
    a = cvse_operand(keep, v, rng)
    return a, rng.uniform(-1, 1, (k, n)).astype(np.float16), n


def _sddmm_problem(seed: int, v: int = 4, m: int = 32, k: int = 64, n: int = 96):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    grp = rng.random((m // v, n)) < 0.3
    grp[:, 0] = True
    return a, b, mask_operand(grp, v)


# --------------------------------------------------------------------- #
# per-target runners: (seed, skip) -> (detected, detail)
# --------------------------------------------------------------------- #
def _spmm_ownership(seed: int, skip: int) -> Tuple[bool, str]:
    a, b, _n = _spmm_problem(seed)
    kern = OctetSpmmKernel(simulate=True)
    inj = FaultInjector("spmm_octet.acc", "bitflip16", seed, skip=skip)
    with inj.armed():
        findings, _ = racecheck.check_spmm_octet_ownership(kern, a, b)
    return inj.fired and bool(findings), inj.detail


def _sddmm_ownership(seed: int, skip: int) -> Tuple[bool, str]:
    a, b, mask = _sddmm_problem(seed)
    kern = OctetSddmmKernel(variant="reg", simulate=True)
    inj = FaultInjector("sddmm_octet.acc", "bitflip16", seed, skip=skip)
    with inj.armed():
        findings, _ = racecheck.check_sddmm_octet_ownership(kern, a, b, mask)
    return inj.fired and bool(findings), inj.detail


def _functional_spmm(seed: int, skip: int) -> Tuple[bool, str]:
    """Tolerance-based differential over the functional SpMM: a flip in
    a low mantissa bit hides inside fp16 noise — the measured escape
    rate of checking with an epsilon instead of bit-exactly."""
    a, b, _n = _spmm_problem(seed)
    clean = np.asarray(spmm_functional(a, b), dtype=np.float32)
    inj = FaultInjector("functional.spmm.out", "bitflip16", seed, skip=skip)
    with inj.armed():
        dirty = np.asarray(spmm_functional(a, b), dtype=np.float32)
    with np.errstate(invalid="ignore"):
        detected = not np.allclose(dirty, clean, rtol=2e-2, atol=2e-3, equal_nan=False)
    return inj.fired and detected, inj.detail


def _trace_memcheck(kind: str):
    def runner(seed: int, skip: int) -> Tuple[bool, str]:
        a, _b, n = _spmm_problem(seed)
        amap = memcheck.spmm_octet_address_map(a, n)
        inj = FaultInjector("trace.octet_spmm.ops", kind, seed, skip=skip)
        with inj.armed():
            findings, _ = memcheck.check_stream(trace.octet_spmm_cta_sectors(a, n), amap)
        return inj.fired and bool(findings), inj.detail

    return runner


def _stats_statcheck(kind: str):
    def runner(seed: int, skip: int) -> Tuple[bool, str]:
        a, _b, n = _spmm_problem(seed)
        kern = OctetSpmmKernel()
        inj = FaultInjector("stats.final", kind, seed, skip=skip)
        with inj.armed():
            stats = kern.stats_for(a, n)
        findings, _ = statcheck.check_stats(stats, spec=kern.spec)
        return inj.fired and bool(findings), inj.detail

    return runner


def _memo_integrity(seed: int, skip: int) -> Tuple[bool, str]:
    """Corrupt a checksummed memo blob and require the store to (a)
    notice and (b) serve the recomputed — bit-identical — stats, never
    the corrupt entry."""
    a, _b, n = _spmm_problem(seed)
    kern = OctetSpmmKernel()
    rng = np.random.default_rng(seed)
    memo_was = memo.set_enabled(True), memo.set_checksum(True)
    memo.clear()
    try:
        clean = kern.stats_for(a, n)
        ref_sig = memo.stats_signature(clean)
        before = memo.integrity_failures()
        flip = int(rng.integers(200))
        if not memo.tamper_entry("stats", index=0, flip_byte=flip):
            return False, "tamper_entry found no blob entry"
        served = kern.stats_for(a, n)
        caught = memo.integrity_failures() - before == 1
        never_served = memo.stats_signature(served) == ref_sig
        return caught and never_served, f"memo blob byte {flip} flipped; caught={caught}"
    finally:
        memo.set_enabled(memo_was[0])
        memo.set_checksum(memo_was[1])
        memo.clear()


def _shared_integrity(seed: int, skip: int) -> Tuple[bool, str]:
    """Corrupt a shared-tier entry file on disk and require the
    cross-process store to (a) fail the blob checksum on the next
    lookup, (b) fall through to a recompute, and (c) serve the
    bit-identical recomputed stats — the corrupt bytes must never
    reach a caller."""
    import shutil
    import tempfile

    a, _b, n = _spmm_problem(seed)
    kern = OctetSpmmKernel()
    rng = np.random.default_rng(seed)
    tmp = tempfile.mkdtemp(prefix="repro-sharedmemo-fault-")
    memo_was = memo.set_enabled(True), memo.set_checksum(True)
    shared_was = sharedmemo.set_enabled(True), sharedmemo.set_dir(tmp)
    memo.clear()
    sharedmemo.reset()
    try:
        clean = kern.stats_for(a, n)
        ref_sig = memo.stats_signature(clean)
        flip = int(rng.integers(200))
        if not sharedmemo.tamper_entry("stats", index=0, flip_byte=flip):
            return False, "tamper_entry found no shared entry"
        # drop the local tier so the next call must go through the
        # shared entry (whose bytes no longer match their digest)
        memo.clear()
        before = sharedmemo.integrity_failures()
        served = kern.stats_for(a, n)
        caught = sharedmemo.integrity_failures() - before == 1
        never_served = memo.stats_signature(served) == ref_sig
        return (caught and never_served,
                f"shared entry byte {flip} flipped; caught={caught}")
    finally:
        memo.set_enabled(memo_was[0])
        memo.set_checksum(memo_was[1])
        memo.clear()
        sharedmemo.reset()
        sharedmemo.set_enabled(shared_was[0])
        sharedmemo.set_dir(shared_was[1])
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------- #
# serving-layer runners: score detection *and* recovery of the serving
# fault sites (serving.worker.stall / serving.worker.latency /
# serving.batch.result) under seeded overload.  The serving package is
# imported lazily: campaigns that never touch it stay light.
# --------------------------------------------------------------------- #
def _serving_corrupt_detect(seed: int, skip: int) -> Tuple[bool, str]:
    """Inject corrupted batch results (serving.batch.result) at a
    corruption-dense rate and require detection, retry, and that
    nothing corrupt is ever served to a caller."""
    from ..serving import report, simulate
    from ..serving.workload import FaultProfile, Scenario, get_scenario

    base = get_scenario("overload")
    sc = Scenario("corrupt-detect", "campaign: dense TCU result corruption",
                  base.tenants, load=base.load,
                  faults=FaultProfile(corrupt_prob=0.25))
    res = simulate(sc, 4000, seed, verify=True)
    doc = report(res)
    injected = res.counters["faults_injected"]
    detected = res.counters["faults_detected"]
    served = doc["outcomes"]["corrupt-served"]
    ok = detected >= 1 and served == 0
    return ok, (f"corruptions detected={detected:.0f} of injected faults="
                f"{injected:.0f}; corrupt-served={served}")


def _serving_stall_recover(seed: int, skip: int) -> Tuple[bool, str]:
    """Stall workers mid-batch (serving.worker.stall) at moderate load
    and require hedged re-dispatch to recover: hedges fire and the
    cluster keeps completing the bulk of admitted requests."""
    from ..serving import report, simulate
    from ..serving.workload import FaultProfile, Scenario, get_scenario

    base = get_scenario("steady")
    sc = Scenario("stall-recover", "campaign: heavy stalls at 0.5x load",
                  base.tenants, load=0.5,
                  faults=FaultProfile(stall_rate_per_s=30.0,
                                      stall_us=80_000.0))
    res = simulate(sc, 6000, seed)
    doc = report(res)
    stalls = res.counters["stalls_applied"]
    hedges = res.counters["hedges"]
    completed = doc["outcomes"]["completed"]
    frac = completed / doc["requests"]
    ok = stalls >= 1 and hedges >= 1 and frac >= 0.5
    return ok, (f"stalls={stalls:.0f} hedges={hedges:.0f} "
                f"completed={completed}/{doc['requests']}")


def _serving_spike_recover(seed: int, skip: int) -> Tuple[bool, str]:
    """Latency-spike windows (serving.worker.latency) at a spike-dense
    rate: the guardrail must keep every tenant's admitted p99 inside
    its SLO while spiked executions actually happened."""
    from ..serving import report, simulate
    from ..serving.workload import FaultProfile, Scenario, get_scenario

    base = get_scenario("steady")
    sc = Scenario("spike-recover", "campaign: dense latency spikes at 0.6x",
                  base.tenants, load=0.6,
                  faults=FaultProfile(spike_rate_per_s=25.0,
                                      spike_us=12_000.0, spike_factor=2.2))
    res = simulate(sc, 6000, seed)
    doc = report(res)
    spiked = res.counters["spiked_execs"]
    worst = max(r["p99_slo_ratio"] for r in doc["per_tenant"])
    ok = spiked >= 1 and worst <= 1.0
    return ok, f"spiked_execs={spiked:.0f} worst p99/slo={worst:.3f}"


def _serving_overload_shed(seed: int, skip: int) -> Tuple[bool, str]:
    """2.2x offered load: degradation must be graceful — typed sheds,
    a complete ledger (every request terminal), admitted p99 within
    SLO, goodput bounded below by the capacity share — and the ledger
    must replay bit-identically under the same seed."""
    from ..serving import report, simulate
    from ..serving.workload import get_scenario

    sc = get_scenario("overload")
    res = simulate(sc, 4000, seed)
    doc = report(res)
    shed = (doc["outcomes"]["shed-admission"] + doc["outcomes"]["shed-queue"])
    worst = max(r["p99_slo_ratio"] for r in doc["per_tenant"])
    accounted = sum(doc["outcomes"].values()) == doc["requests"]
    no_pending = doc["outcomes"]["pending"] == 0
    bounded = doc["goodput_fraction"] >= 0.15
    replay = simulate(sc, 4000, seed).ledger_digest() == res.ledger_digest()
    ok = (shed >= 1 and accounted and no_pending and worst <= 1.0
          and bounded and replay)
    return ok, (f"shed={shed} worst p99/slo={worst:.3f} goodput="
                f"{doc['goodput_fraction']:.3f} replay={replay}")


# --------------------------------------------------------------------- #
# campaign registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    name: str
    site: str
    kind: str
    checker: str          # ownership | memcheck | statcheck | memocheck
    runner: Callable[[int, int], Tuple[bool, str]]
    subtle: bool = False  # expected-escape class: excluded from smoke
    spread: bool = False  # site visited many times: spread skip over reps


_TARGETS: Tuple[Target, ...] = (
    Target("spmm-acc-bitflip", "spmm_octet.acc", "bitflip16", "ownership",
           _spmm_ownership),
    Target("sddmm-acc-bitflip", "sddmm_octet.acc", "bitflip16", "ownership",
           _sddmm_ownership),
    Target("func-spmm-bitflip", "functional.spmm.out", "bitflip16", "ownership",
           _functional_spmm, subtle=True),
    Target("trace-sector-oob", "trace.octet_spmm.ops", "sector", "memcheck",
           _trace_memcheck("sector"), spread=True),
    Target("trace-sector-low", "trace.octet_spmm.ops", "sector-low", "memcheck",
           _trace_memcheck("sector-low"), subtle=True, spread=True),
    Target("stats-negate", "stats.final", "stats-negate", "statcheck",
           _stats_statcheck("stats-negate")),
    Target("stats-roofline", "stats.final", "stats-roofline", "statcheck",
           _stats_statcheck("stats-roofline")),
    Target("stats-subtle", "stats.final", "stats-subtle", "statcheck",
           _stats_statcheck("stats-subtle"), subtle=True),
    Target("memo-blob-corrupt", "memo[stats]", "byteflip", "memocheck",
           _memo_integrity),
    Target("sharedmemo-entry-corrupt", "sharedmemo[stats]", "byteflip",
           "memocheck", _shared_integrity),
)

#: serving-layer targets: one per declared serving fault site, plus
#: the end-to-end overload/degradation gate (its own campaign — the
#: kernel campaigns stay unchanged)
_SERVING_TARGETS: Tuple[Target, ...] = (
    Target("serving-corrupt-detect", "serving.batch.result", "corrupt",
           "serving", _serving_corrupt_detect),
    Target("serving-stall-recover", "serving.worker.stall", "stall",
           "serving", _serving_stall_recover),
    Target("serving-spike-recover", "serving.worker.latency", "spike",
           "serving", _serving_spike_recover),
    Target("serving-overload-shed", "serving.*", "overload",
           "serving", _serving_overload_shed),
)


@dataclass(frozen=True)
class CampaignSpec:
    name: str
    targets: Tuple[Target, ...]
    injections: int                  # repetitions per target
    floors: Dict[str, float]         # checker -> required coverage


#: documented coverage floors; the default-campaign numbers are
#: measured (see docs/ROBUSTNESS.md) and set one escape below the
#: observed coverage so a real detector regression trips them.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    "smoke": CampaignSpec(
        name="smoke",
        targets=tuple(t for t in _TARGETS if not t.subtle),
        injections=2,
        floors={"ownership": 1.0, "memcheck": 1.0, "statcheck": 1.0,
                "memocheck": 1.0},
    ),
    "default": CampaignSpec(
        name="default",
        targets=_TARGETS,
        injections=6,
        floors={"ownership": 0.75, "memcheck": 0.50, "statcheck": 0.65,
                "memocheck": 1.0},
    ),
    "serving-overload": CampaignSpec(
        name="serving-overload",
        targets=_SERVING_TARGETS,
        injections=2,
        floors={"serving": 1.0},
    ),
}


@dataclass
class InjectionRecord:
    target: str
    site: str
    kind: str
    checker: str
    seed: int
    detected: bool
    detail: str


@dataclass
class CampaignResult:
    name: str
    records: List[InjectionRecord] = field(default_factory=list)
    floors: Dict[str, float] = field(default_factory=dict)

    def coverage(self) -> Dict[str, Tuple[int, int]]:
        """``{checker: (detected, injected)}``."""
        cov: Dict[str, List[int]] = {}
        for r in self.records:
            d, t = cov.setdefault(r.checker, [0, 0])
            cov[r.checker] = [d + (1 if r.detected else 0), t + 1]
        return {k: (v[0], v[1]) for k, v in sorted(cov.items())}

    @property
    def passed(self) -> bool:
        cov = self.coverage()
        for checker, floor in self.floors.items():
            detected, total = cov.get(checker, (0, 0))
            if total == 0 or detected / total < floor:
                return False
        return True

    def to_text(self, verbose: bool = False) -> str:
        lines = [f"== fault-injection campaign: {self.name} "
                 f"({len(self.records)} injections) =="]
        per_target: Dict[str, List[InjectionRecord]] = {}
        for r in self.records:
            per_target.setdefault(r.target, []).append(r)
        rows = []
        for target, recs in per_target.items():
            det = sum(r.detected for r in recs)
            rows.append({
                "Target": target,
                "Site": recs[0].site,
                "Kind": recs[0].kind,
                "Checker": recs[0].checker,
                "Detected": f"{det}/{len(recs)}",
            })
        lines.append(format_table(rows))
        lines.append("")
        cov_rows = []
        for checker, (det, tot) in self.coverage().items():
            floor = self.floors.get(checker, 0.0)
            rate = det / tot if tot else 0.0
            cov_rows.append({
                "Checker": checker,
                "Coverage": f"{100.0 * rate:.0f}% ({det}/{tot})",
                "Floor": f"{100.0 * floor:.0f}%",
                "Verdict": "ok" if rate >= floor else "BELOW FLOOR",
            })
        lines.append(format_table(cov_rows))
        if verbose:
            lines.append("")
            for r in self.records:
                mark = "DET " if r.detected else "esc "
                lines.append(f"  {mark} {r.target:20s} seed={r.seed} {r.detail}")
        return "\n".join(lines)


def run_campaign(name: str = "default", seed: int = 1234) -> CampaignResult:
    """Run the named campaign; raises :class:`ValueError` (listing the
    valid choices) for unknown names, matching the CLI convention."""
    spec = CAMPAIGNS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown campaign: {name!r}; valid choices: {sorted(CAMPAIGNS)}"
        )
    result = CampaignResult(name=spec.name, floors=dict(spec.floors))
    with obs_tracing.span("faults.campaign", campaign=spec.name, seed=seed) as sp:
        for t_i, target in enumerate(spec.targets):
            for rep in range(spec.injections):
                inj_seed = seed + 1009 * t_i + rep
                skip = rep if target.spread else 0
                detected, detail = target.runner(inj_seed, skip)
                result.records.append(InjectionRecord(
                    target=target.name, site=target.site, kind=target.kind,
                    checker=target.checker, seed=inj_seed,
                    detected=detected, detail=detail,
                ))
        sp.set(injections=len(result.records),
               detected=sum(r.detected for r in result.records))
    if obs_metrics.enabled():
        obs_metrics.counter_add("faults.injections", len(result.records))
        obs_metrics.counter_add("faults.detected",
                                sum(r.detected for r in result.records))
    return result
