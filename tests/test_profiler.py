"""Tests for the Nsight-analog profiler (repro.profiler): counter
derivation, roofline classification/agreement, the run-history store,
baseline regression gating, and the CLI/runner/serving threading."""

import json

import pytest

from repro import profiler
from repro.cli import main as cli_main
from repro.experiments import runner
from repro.kernels.cases import KERNEL_CASES as TABLE
from repro.obs import metrics, tracing
from repro.profiler import history as history_mod
from repro.profiler.registry import CONFIGS
from repro.profiler.roofline import MATH_PIPES, ROOFLINE_APPLICABLE, classify
from repro.sanitizer import sanitize
from repro.sanitizer.harness import KERNEL_CASES
from repro.serving import get_scenario, profile_summary, simulate

from .test_perfmodel import simple_stats


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    tracing.set_enabled(None)
    tracing.reset()
    metrics.reset()
    yield
    tracing.set_enabled(None)
    tracing.reset()
    metrics.reset()


@pytest.fixture(scope="module")
def smoke_profiles():
    """One shared smoke-config sweep (stats/traces memoise process-wide)."""
    return profiler.profile_all(CONFIGS["smoke"])


# --------------------------------------------------------------------- #
# counter derivation
# --------------------------------------------------------------------- #
class TestDerivation:
    def test_registry_mirrors_sanitizer_kernel_cases(self):
        assert set(profiler.KERNEL_NAMES) == set(KERNEL_CASES)

    def test_every_case_table_row_reaches_every_consumer(self, smoke_profiles, capsys):
        assert cli_main(["plans"]) == 0
        out = capsys.readouterr().out.splitlines()
        planned = [line.split("|")[0].strip() for line in out[2:] if "|" in line]
        assert profiler.KERNEL_NAMES == tuple(TABLE)
        for name, case in TABLE.items():
            assert smoke_profiles[name].time_us > 0
            [report] = sanitize([name], suite="smoke")
            assert report.ok and report.checks_run
            assert (name in planned) == (case.plan is not None)
        assert len(planned) == 6

    def test_all_kernels_profiled_and_classified(self, smoke_profiles):
        assert len(smoke_profiles) == 13
        for name, p in smoke_profiles.items():
            assert p.name == name
            assert p.classification in ("compute", "memory", "latency")
            assert p.roofline_bound in ("compute", "memory")
            assert p.time_us > 0
            assert p.arithmetic_intensity > 0

    def test_report_fields(self):
        # the paper's Table 1-3 view: stalls, grid size, Sectors/Req
        p = profiler.derive_profile(simple_stats(hmma=1e5, ldg=1e4, imad=1e4))
        assert p.thread_blocks == 2048
        assert p.sectors_per_request == pytest.approx(16.0)
        for pct in (p.no_instruction_pct, p.wait_pct,
                    p.short_scoreboard_pct, p.long_scoreboard_pct):
            assert 0 <= pct <= 100
        assert p.compute_pipe in MATH_PIPES
        assert p.hmma_issue_efficiency == round(p.pipe_utilization["tensor"], 4)
        assert "pipe_utilization" not in p.counters()

    def test_counters_record_is_flat_and_sorted(self, smoke_profiles):
        rec = smoke_profiles["spmm-octet"].counters()
        assert list(rec) == sorted(rec)
        assert all(not isinstance(v, (dict, list)) for v in rec.values())

    def test_hmma_efficiency_only_on_tensor_kernels(self, smoke_profiles):
        assert smoke_profiles["spmm-octet"].hmma_issue_efficiency is not None
        assert smoke_profiles["spmm-fpu"].hmma_issue_efficiency is None

    def test_trace_backed_kernels_have_l1_hit_rate(self, smoke_profiles):
        for name in ("spmm-octet", "dense-gemm", "sddmm-octet-reg",
                     "sddmm-wmma", "spmm-blocked-ell"):
            assert smoke_profiles[name].l1_sector_hit_rate is not None
        assert smoke_profiles["softmax"].l1_sector_hit_rate is None

    def test_achieved_never_exceeds_peak(self, smoke_profiles):
        for p in smoke_profiles.values():
            assert p.achieved_tflops <= p.peak_tflops
            assert p.dram_utilization_pct <= 100.0 + 1e-6

    def test_bottleneck_attribution_ranked_with_advice(self, smoke_profiles):
        rows = smoke_profiles["spmm-octet"].bottlenecks
        assert 0 < len(rows) <= 3
        cycles = [r["cycles"] for r in rows]
        assert cycles == sorted(cycles, reverse=True)
        assert all(r["advice"] for r in rows)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="valid choices"):
            profiler.profile_all(CONFIGS["smoke"], kernels=["nope"])

    def test_profiling_emits_declared_obs_names(self):
        tracing.enable()
        profiler.profile_all(CONFIGS["smoke"], kernels=["softmax"])
        assert metrics.counters().get("profiler.kernels.profiled") == 1.0
        names = {s["name"] for s in tracing.completed_spans()}
        assert "profiler.capture" in names
        assert "profiler.kernel.softmax" in names


# --------------------------------------------------------------------- #
# roofline
# --------------------------------------------------------------------- #
class TestRoofline:
    def test_classify_buckets(self):
        assert classify("latency") == "latency"
        for b in ("l1", "l2", "dram", "shared"):
            assert classify(b) == "memory"
        for b in ("issue", "pipe:tensor", "pipe:fma32"):
            assert classify(b) == "compute"

    def test_fig20_memory_bound_set_matches_roofline(self):
        """The acceptance gate: on the fig20 configs, every kernel the
        interval model resolves onto a roof agrees with the two-ceiling
        roofline about which side of the ridge it is on."""
        for cname in ("fig20-k64", "fig20-k256"):
            profs = profiler.profile_all(CONFIGS[cname])
            assert profiler.roofline_agreement(profs) == []
            judged = {n: p for n, p in profs.items()
                      if p.limiter in ROOFLINE_APPLICABLE}
            assert judged, f"{cname}: no roofline-applicable kernels"
            mem = {n for n, p in judged.items() if p.classification == "memory"}
            roof_mem = {n for n, p in judged.items()
                        if p.roofline_bound == "memory"}
            assert mem == roof_mem

    def test_fig20_k256_gemm_is_compute_bound_spmm_is_not(self):
        profs = profiler.profile_all(CONFIGS["fig20-k256"],
                                     kernels=["dense-gemm", "spmm-octet"])
        assert profs["dense-gemm"].classification == "compute"
        assert profs["spmm-octet"].classification == "memory"

    def test_roofline_doc_is_sorted_and_complete(self, smoke_profiles):
        doc = profiler.roofline_doc(smoke_profiles)
        names = [p["kernel"] for p in doc["points"]]
        assert names == sorted(smoke_profiles)
        assert doc["ceilings"]["dram_gbs"] == 900.0

    def test_agreement_flags_a_planted_mismatch(self, smoke_profiles):
        import dataclasses
        profs = dict(smoke_profiles)
        victim = profs["spmm-octet"]
        profs["spmm-octet"] = dataclasses.replace(
            victim, limiter="dram", classification="memory",
            roofline_bound="compute")
        assert "spmm-octet" in profiler.roofline_agreement(profs)


# --------------------------------------------------------------------- #
# run-history store
# --------------------------------------------------------------------- #
class TestHistory:
    def _record(self):
        return profiler.make_record(
            "kernel-profile", {"name": "smoke"}, {"kernels": {"k": {"time_us": 1.0}}})

    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        rec = self._record()
        profiler.append_record(path, rec)
        assert profiler.load_history(path) == [rec]

    def test_same_payload_same_digest(self):
        a, b = self._record(), self._record()
        assert a["digest"] == b["digest"]
        assert a["config_digest"] == b["config_digest"]

    def test_validate_catches_tampering_and_unknown_kinds(self):
        rec = self._record()
        assert profiler.validate_record(rec) == []
        bad = dict(rec, kernels={"k": {"time_us": 99.0}})
        assert any("digest" in p for p in profiler.validate_record(bad))
        with pytest.raises(ValueError, match="unknown record kind"):
            profiler.make_record("nope", {}, {})
        with pytest.raises(ValueError, match="missing fields"):
            profiler.make_record("serving", {}, {"per_tenant": []})

    def test_append_refuses_invalid(self, tmp_path):
        rec = self._record()
        rec["digest"] = "0" * 32
        with pytest.raises(ValueError, match="invalid record"):
            profiler.append_record(tmp_path / "h.jsonl", rec)
        assert not (tmp_path / "h.jsonl").exists()

    def test_query_filters_by_kind_and_config(self, tmp_path):
        path = tmp_path / "h.jsonl"
        a = self._record()
        b = profiler.make_record("serving", {"scenario": "s"},
                                 {"per_tenant": [], "ladder_occupancy": {}})
        profiler.append_record(path, a)
        profiler.append_record(path, b)
        records = profiler.load_history(path)
        assert [r["kind"] for r in profiler.query(records, kind="serving")] == ["serving"]
        assert profiler.query(records, config_digest=a["config_digest"]) == [a]
        assert profiler.query(records, last=1) == [b]

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="h.jsonl:1"):
            profiler.load_history(path)

    def test_git_state_shape(self):
        git = history_mod.git_state()
        assert set(git) == {"commit", "dirty"}


# --------------------------------------------------------------------- #
# baseline gating
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_self_check_is_clean(self, smoke_profiles, tmp_path):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke")
        path = tmp_path / "b.json"
        profiler.write_baseline(path, doc)
        loaded = profiler.load_baseline(path)
        assert profiler.check_profiles(smoke_profiles, loaded,
                                       config="smoke") == []

    def test_injected_regression_detected_both_directions(self, smoke_profiles):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke")
        # lower-is-better counter: baseline was twice as fast
        doc["kernels"]["spmm-octet"]["time_us"] *= 0.5
        # higher-is-better counter: baseline achieved twice the FLOP/s
        doc["kernels"]["dense-gemm"]["achieved_tflops"] *= 2.0
        regs = profiler.check_profiles(smoke_profiles, doc, config="smoke")
        assert {(r["kernel"], r["counter"]) for r in regs} == {
            ("spmm-octet", "time_us"), ("dense-gemm", "achieved_tflops")}
        assert all(r["change_pct"] is not None for r in regs)

    def test_improvement_is_not_a_regression(self, smoke_profiles):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke")
        doc["kernels"]["spmm-octet"]["time_us"] *= 2.0   # we got faster
        doc["kernels"]["dense-gemm"]["achieved_tflops"] *= 0.5
        assert profiler.check_profiles(smoke_profiles, doc,
                                       config="smoke") == []

    def test_within_tolerance_passes(self, smoke_profiles):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke",
                                              tolerance_pct=10.0)
        doc["kernels"]["spmm-octet"]["time_us"] /= 1.05  # 5% slower than base
        assert profiler.check_profiles(smoke_profiles, doc,
                                       config="smoke") == []

    def test_classification_change_and_missing_kernel_flagged(self, smoke_profiles):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke")
        doc["kernels"]["softmax"]["classification"] = "compute"
        doc["kernels"]["ghost-kernel"] = {"classification": "memory"}
        regs = profiler.check_profiles(smoke_profiles, doc, config="smoke")
        counters = {(r["kernel"], r["counter"]) for r in regs}
        assert ("softmax", "classification") in counters
        assert ("ghost-kernel", "missing") in counters

    def test_config_mismatch_short_circuits(self, smoke_profiles):
        doc = profiler.baseline_from_profiles(smoke_profiles, "smoke")
        regs = profiler.check_profiles(smoke_profiles, doc, config="fig20-k64")
        assert len(regs) == 1 and regs[0]["counter"] == "config"

    def test_checked_in_baseline_matches_current_code(self):
        """The repo's committed baseline must stay green on the config
        it pins (the CI profile job runs exactly this)."""
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "tools" / "profile_baseline.json"
        doc = profiler.load_baseline(path)
        profs = profiler.profile_all(CONFIGS[doc["config"]])
        assert profiler.check_profiles(profs, doc, config=doc["config"]) == []


# --------------------------------------------------------------------- #
# reports and diffs
# --------------------------------------------------------------------- #
class TestReports:
    def test_profile_table_renders_all_kernels_and_na(self, smoke_profiles):
        text = profiler.profile_table(smoke_profiles)
        for name in smoke_profiles:
            assert name in text
        assert "n/a" in text  # softmax has no trace/hmma counters

    def test_diff_kernels_identical_and_different(self, smoke_profiles):
        a = smoke_profiles["spmm-octet"]
        assert profiler.diff_kernels(a, a) == "(profiles identical)"
        text = profiler.diff_kernels(a, smoke_profiles["spmm-fpu"])
        assert "time_us" in text and "Delta" in text

    def test_diff_records_by_kernel(self, smoke_profiles):
        rec = {"kernels": {n: p.counters()
                           for n, p in smoke_profiles.items()}}
        other = json.loads(json.dumps(rec))
        other["kernels"]["spmm-octet"]["time_us"] *= 3.0
        del other["kernels"]["softmax"]
        text = profiler.diff_records(rec, other)
        assert "spmm-octet" in text
        assert "softmax: only in run A" in text
        assert profiler.diff_records(rec, rec) == "(runs identical)"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestProfileCli:
    def _run(self, tmp_path, *extra):
        return cli_main([
            "profile", "--config", "smoke",
            "--history", str(tmp_path / "history.jsonl"),
            "--baseline", str(tmp_path / "baseline.json"), *extra])

    def test_unknown_config_and_kernel_exit_2(self, tmp_path, capsys):
        assert cli_main(["profile", "--config", "nope"]) == 2
        assert "valid choices" in capsys.readouterr().err
        assert self._run(tmp_path, "--kernel", "nope") == 2

    def test_smoke_gate_passes_and_history_is_bit_stable(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        assert self._run(tmp_path, "--smoke", "--check") == 0
        assert self._run(tmp_path, "--smoke", "--check") == 0
        out = capsys.readouterr().out
        assert "history bit-stable" in out
        records = profiler.load_history(tmp_path / "history.jsonl")
        assert len(records) == 3
        assert records[-1]["digest"] == records[-2]["digest"]
        for rec in records:
            assert profiler.validate_record(rec) == []

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        path = tmp_path / "baseline.json"
        doc = json.loads(path.read_text())
        doc["kernels"]["spmm-octet"]["time_us"] *= 0.5
        path.write_text(json.dumps(doc))
        assert self._run(tmp_path, "--check", "--no-history") == 1
        assert "spmm-octet" in capsys.readouterr().err

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        assert self._run(tmp_path, "--check", "--no-history") == 2
        assert "update-baseline" in capsys.readouterr().err

    def test_kernel_subset_and_diff(self, tmp_path, capsys):
        rc = self._run(tmp_path, "--kernel", "spmm-octet",
                       "--kernel", "spmm-fpu", "--diff",
                       "spmm-octet", "spmm-fpu")
        assert rc == 0
        out = capsys.readouterr().out
        assert "diff spmm-octet vs spmm-fpu" in out
        # subsets never pollute the history store
        assert not (tmp_path / "history.jsonl").exists()

    def test_json_document_written(self, tmp_path):
        assert self._run(tmp_path, "--json", str(tmp_path / "p.json"),
                         "--no-history") == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert set(doc) == {"config", "kernels", "roofline"}
        assert len(doc["kernels"]) == 13

    def test_diff_runs_against_history(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        assert self._run(tmp_path, "--diff-runs", "0", "-1") == 0
        assert "diff history runs" in capsys.readouterr().out
        assert self._run(tmp_path, "--diff-runs", "5", "6") == 2


# --------------------------------------------------------------------- #
# runner + serving threading
# --------------------------------------------------------------------- #
class TestThreading:
    def test_runner_profile_artifacts_and_sweep_record(self, capsys, tmp_path):
        runner.run_all(only=["table1"], out_dir=tmp_path, profile=True)
        capsys.readouterr()
        art = json.loads((tmp_path / "table1.profile.json").read_text())
        assert art["experiment"] == "table1"
        assert art["seconds"] >= 0
        assert "memo_scope" in art and art["config"]
        records = profiler.load_history(tmp_path / "profile_history.jsonl")
        assert len(records) == 1
        assert records[0]["kind"] == "experiment-sweep"
        assert profiler.validate_record(records[0]) == []
        assert "table1" in records[0]["experiments"]

    def test_runner_profile_requires_out_dir(self):
        with pytest.raises(ValueError, match="--profile needs --out"):
            runner.run_all(only=["table1"], profile=True)

    def test_serving_profile_summary_shape(self):
        result = simulate(get_scenario("steady"), 400, seed=3)
        doc = profile_summary(result)
        assert doc["per_tenant"]
        for row in doc["per_tenant"]:
            assert 0.0 <= row["slo_attainment"] <= 1.0
            assert row["within_slo"] <= row["completed"] <= row["offered"]
        occ = doc["ladder_occupancy"]
        assert occ and abs(sum(occ.values()) - 1.0) < 0.01

    def test_serve_cli_appends_serving_record(self, tmp_path, capsys):
        rc = cli_main(["serve", "--requests", "400", "--seed", "3",
                       "--profile", "--history",
                       str(tmp_path / "history.jsonl")])
        assert rc == 0
        assert "serving record" in capsys.readouterr().out
        records = profiler.load_history(tmp_path / "history.jsonl")
        assert [r["kind"] for r in records] == ["serving"]
        assert profiler.validate_record(records[0]) == []
