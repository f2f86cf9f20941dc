"""Serving-simulator coverage (PR 9).

The contract under test: the discrete-event multi-tenant serving
simulator is bit-deterministic per seed, accounts every request with a
typed outcome (never a silent drop), keeps admitted-request p99 within
each tenant's SLO even at 2.2x offered load with injected faults,
detects corrupted batch results before they reach a tenant, recovers
stalled batches by hedging, and exports a schema-valid Chrome
timeline.  The fault tests score detection and recovery on seeded
fault schedules; the ``serve`` CLI smoke gate rides on the same
properties, so it is exercised here too.
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.obs.tracing import validate_chrome_trace
from repro.serving import (
    OUTCOMES,
    SCENARIOS,
    generate_workload,
    get_scenario,
    load_sweep,
    report,
    simulate,
    timeline_spans,
)
from repro.serving.policies import RetryPolicy, TokenBucket
from repro.serving.workload import FaultProfile, Scenario

CAPACITY = 16.0  # tokens/us, round figure for workload-only tests


def _quiet(name):
    """The named scenario with its fault profile stripped."""
    from dataclasses import replace
    return replace(get_scenario(name), faults=FaultProfile())


class TestWorkload:
    def test_deterministic_and_arrival_sorted(self):
        sc = get_scenario("steady")
        a = generate_workload(sc, 500, seed=7, capacity_tokens_per_us=CAPACITY)
        b = generate_workload(sc, 500, seed=7, capacity_tokens_per_us=CAPACITY)
        assert np.array_equal(a.arrival_us, b.arrival_us)
        assert np.array_equal(a.tenant, b.tenant)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.all(np.diff(a.arrival_us) >= 0)
        assert a.n == 500

    def test_every_tenant_represented(self):
        sc = get_scenario("steady")
        wl = generate_workload(sc, 300, seed=0, capacity_tokens_per_us=CAPACITY)
        assert set(np.unique(wl.tenant)) == set(range(len(sc.tenants)))

    def test_deadlines_follow_tenant_slos(self):
        sc = get_scenario("steady")
        wl = generate_workload(sc, 200, seed=1, capacity_tokens_per_us=CAPACITY)
        slos = np.array([t.slo_us for t in sc.tenants])
        assert np.allclose(wl.deadline_us, wl.arrival_us + slos[wl.tenant])

    def test_validation(self):
        sc = get_scenario("steady")
        with pytest.raises(ValueError, match="n_requests"):
            generate_workload(sc, 0, seed=0, capacity_tokens_per_us=CAPACITY)
        with pytest.raises(ValueError, match="capacity"):
            generate_workload(sc, 10, seed=0, capacity_tokens_per_us=0.0)
        with pytest.raises(ValueError, match="valid choices"):
            get_scenario("nope")


class TestDeterminism:
    def test_same_seed_bit_identical_ledger(self):
        sc = get_scenario("overload")
        a = simulate(sc, 1500, seed=42)
        b = simulate(sc, 1500, seed=42)
        assert a.ledger_digest() == b.ledger_digest()
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.finish_us, b.finish_us)
        assert a.exec_log == b.exec_log

    def test_different_seeds_diverge(self):
        sc = get_scenario("overload")
        assert (simulate(sc, 1500, seed=1).ledger_digest()
                != simulate(sc, 1500, seed=2).ledger_digest())


class TestOutcomeAccounting:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_request_typed_no_silent_drops(self, name):
        res = simulate(get_scenario(name), 1200, seed=3)
        counts = res.outcome_counts()
        assert sum(counts.values()) == 1200
        assert counts["pending"] == 0
        assert set(counts) == set(OUTCOMES)

    def test_steady_state_completes_everything_in_slo(self):
        res = simulate(get_scenario("steady"), 1500, seed=5)
        doc = report(res)
        assert doc["outcomes"]["completed"] == 1500
        assert doc["goodput_fraction"] == 1.0
        for row in doc["per_tenant"]:
            assert row["p99_slo_ratio"] <= 1.0


class TestOverload:
    def test_graceful_degradation_at_2x(self):
        """2.2x offered load with stalls/spikes/corruption: load is
        shed with typed outcomes, admitted p99 holds inside every
        tenant SLO, goodput declines boundedly, and the ledger replays
        bit for bit."""
        sc = get_scenario("overload")
        for requests, seed in ((3000, 0), (4000, 4261), (4000, 4262)):
            res = simulate(sc, requests, seed)
            doc = report(res)
            shed = doc["outcomes"]["shed-admission"] + doc["outcomes"]["shed-queue"]
            assert shed > 0
            assert sum(doc["outcomes"].values()) == requests
            assert doc["outcomes"]["pending"] == 0
            assert doc["goodput_fraction"] >= 0.15
            for row in doc["per_tenant"]:
                if row["completed"]:
                    assert row["p99_slo_ratio"] <= 1.0
            # the guardrail left level 0 under sustained pressure
            assert any(level > 0 for _, level in res.level_trace)
            assert simulate(sc, requests, seed).ledger_digest() == res.ledger_digest()

    def test_goodput_declines_boundedly_across_loads(self):
        rows = load_sweep(_quiet("steady"), 3000, seed=0, loads=(0.5, 2.0))
        assert rows[0]["goodput_fraction"] == 1.0
        assert rows[1]["goodput_fraction"] >= 0.15
        assert rows[1]["shed"] > 0


class TestFaults:
    def test_corruption_detected_never_served_with_verify(self):
        # dense corruption at half load, and at the overload scenario's 2.2x
        for load, requests, seed in ((0.5, 1200, 11), (2.2, 4000, 1234), (2.2, 4000, 1235)):
            sc = Scenario(
                "corrupt-test", "dense corruption", get_scenario("steady").tenants,
                load=load, faults=FaultProfile(corrupt_prob=0.25))
            res = simulate(sc, requests, seed=seed, verify=True)
            counts = res.outcome_counts()
            assert res.counters["faults_detected"] >= 1
            assert counts["corrupt-served"] == 0
            # a detected corruption is retried or typed failed — not served
            assert res.counters["retries"] >= 1 or counts["failed"] >= 1

    def test_corruption_served_is_typed_without_verify(self):
        """Verification off: corrupted results reach tenants, but the
        ledger still types them — the failure mode is visible."""
        sc = Scenario(
            "corrupt-test", "dense corruption", get_scenario("steady").tenants,
            load=0.5, faults=FaultProfile(corrupt_prob=0.25))
        res = simulate(sc, 1200, seed=11, verify=False)
        assert res.outcome_counts()["corrupt-served"] >= 1

    def test_stalls_trigger_hedges(self):
        sc = Scenario(
            "stall-test", "dense stalls", get_scenario("steady").tenants,
            load=0.5, faults=FaultProfile(stall_rate_per_s=30.0,
                                          stall_us=80_000.0))
        for requests, seed in ((3000, 2), (6000, 2243), (6000, 2244)):
            res = simulate(sc, requests, seed=seed)
            assert res.counters["stalls_applied"] >= 1
            assert res.counters["hedges"] >= 1
            # hedged re-dispatch keeps the bulk of the requests completing
            assert res.outcome_counts()["completed"] >= 0.5 * requests

    def test_dense_spikes_keep_p99_within_slo(self):
        sc = Scenario(
            "spike-test", "dense latency spikes", get_scenario("steady").tenants,
            load=0.6, faults=FaultProfile(spike_rate_per_s=25.0,
                                          spike_us=12_000.0, spike_factor=2.2))
        for seed in (3252, 3253):
            res = simulate(sc, 6000, seed=seed)
            assert res.counters["spiked_execs"] >= 1
            assert max(row["p99_slo_ratio"] for row in report(res)["per_tenant"]) <= 1.0

    def test_retry_schedule_is_exponential_without_jitter(self):
        pol = RetryPolicy(backoff_us=500.0)
        assert [pol.delay_us(k) for k in (1, 2, 3)] == [500.0, 1000.0, 2000.0]

    def test_token_bucket_is_deterministic_and_bounded(self):
        tb = TokenBucket(rate_per_us=1.0, burst=10.0)
        assert tb.try_take(0.0, 10.0)          # burst drained
        assert not tb.try_take(1.0, 5.0)       # only 1 token refilled
        assert tb.try_take(20.0, 10.0)         # refill capped at burst


class TestTimeline:
    def test_chrome_trace_validates(self, tmp_path):
        from repro.obs.tracing import export_chrome_trace
        res = simulate(get_scenario("overload"), 800, seed=0)
        spans = timeline_spans(res)
        path = tmp_path / "serve.json"
        export_chrome_trace(path, spans)
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        names = {s["name"] for s in spans}
        assert any(n.startswith("batch.") for n in names)
        assert any(n.startswith("request.") for n in names)

    def test_cap_is_honoured(self):
        res = simulate(get_scenario("steady"), 800, seed=0)
        assert len(timeline_spans(res, cap=50)) == 50


class TestServeCli:
    def test_smoke_gate_passes(self, capsys):
        assert cli_main(["serve", "--smoke", "--requests", "1500"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke" in out and "determinism OK" in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert cli_main(["serve", "--scenario", "nope"]) == 2
        assert "valid choices" in capsys.readouterr().err

    def test_bad_requests_is_usage_error(self):
        assert cli_main(["serve", "--requests", "-5"]) == 2

    @pytest.mark.parametrize("load", ["nan", "inf"])
    def test_non_finite_load_is_usage_error(self, load, capsys):
        assert cli_main(["serve", "--requests", "10", "--load", load]) == 2
        assert capsys.readouterr().err.startswith("error: --load must be")

    def test_sweep_and_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = cli_main(["serve", "--scenario", "steady", "--requests", "400",
                       "--sweep", "--trace-out", str(trace)])
        assert rc == 0
        assert "goodput vs offered load" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
