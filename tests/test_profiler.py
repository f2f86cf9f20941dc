"""Tests for the Nsight-analog profiler (repro.profiler): counter
derivation, roofline classification/agreement, the exact counter
baseline, and the CLI/runner/serving threading."""

import json

import pytest

from repro import profiler
from repro.cli import main as cli_main
from repro.experiments import runner
from repro.kernels.cases import KERNEL_CASES as TABLE
from repro.obs import metrics, tracing
from repro.profiler.registry import CONFIGS
from repro.profiler.roofline import MATH_PIPES, ROOFLINE_APPLICABLE, classify
from repro.serving import get_scenario, profile_summary, simulate

from .oracles import ORACLES
from .sanitizer import check_case
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
    def test_every_case_table_row_reaches_every_consumer(self, smoke_profiles):
        planned = [name for name, case in TABLE.items() if case.factory in ORACLES]
        assert profiler.KERNEL_NAMES == tuple(TABLE)
        for name, case in TABLE.items():
            assert smoke_profiles[name].time_us > 0
            report = check_case(name)
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
# baseline gating
# --------------------------------------------------------------------- #
class TestBaseline:
    @staticmethod
    def _check(profiles, baseline, config=CONFIGS["smoke"]):
        return profiler.check_profiles(profiler.profile_document(profiles, config),
                                       baseline)

    @staticmethod
    def _baseline(profiles):
        # a JSON round trip, like a baseline read back from disk
        doc = profiler.profile_document(profiles, CONFIGS["smoke"])
        return json.loads(json.dumps(doc))

    def test_self_check_is_clean(self, smoke_profiles, tmp_path):
        path = tmp_path / "b.json"
        profiler.write_document(path, self._baseline(smoke_profiles))
        loaded = profiler.load_baseline(path)
        assert loaded["kernels"]["spmm-octet"] == smoke_profiles["spmm-octet"].counters()
        assert self._check(smoke_profiles, loaded) == {}

    def test_one_percent_change_fails_naming_kernel_and_counter(self, smoke_profiles):
        doc = self._baseline(smoke_profiles)
        doc["kernels"]["spmm-octet"]["dram_bytes"] /= 1.01  # now 1% more
        changed = self._check(smoke_profiles, doc)
        assert list(changed) == ["spmm-octet"]
        [row] = changed["spmm-octet"]
        assert row["Counter"] == "dram_bytes" and row["Delta"] == "+1.0%"

    def test_injected_regression_detected_both_directions(self, smoke_profiles):
        # a counter that got worse and one that got better both fail
        doc = self._baseline(smoke_profiles)
        doc["kernels"]["spmm-octet"]["time_us"] *= 0.5
        doc["kernels"]["dense-gemm"]["time_us"] *= 2.0
        changed = self._check(smoke_profiles, doc)
        assert {k: [r["Counter"] for r in rows] for k, rows in changed.items()} == {
            "dense-gemm": ["time_us"], "spmm-octet": ["time_us"]}
        assert changed["spmm-octet"][0]["Delta"] == "+100.0%"
        assert changed["dense-gemm"][0]["Delta"] == "-50.0%"

    def test_improvement_is_not_a_regression(self, smoke_profiles):
        # the exact baseline grades no direction: an improvement is neither
        # passed nor called a regression, it is a changed counter whose
        # signed delta shows it got better, and the baseline is regenerated
        doc = self._baseline(smoke_profiles)
        doc["kernels"]["spmm-octet"]["time_us"] *= 2.0   # we got faster
        doc["kernels"]["dense-gemm"]["achieved_tflops"] *= 0.5
        changed = self._check(smoke_profiles, doc)
        assert {k: [r["Counter"] for r in rows] for k, rows in changed.items()} == {
            "dense-gemm": ["achieved_tflops"], "spmm-octet": ["time_us"]}
        assert changed["spmm-octet"][0]["Delta"] == "-50.0%"
        assert changed["dense-gemm"][0]["Delta"] == "+100.0%"

    def test_classification_change_and_missing_kernel_flagged(self, smoke_profiles):
        doc = self._baseline(smoke_profiles)
        doc["kernels"]["softmax"]["classification"] = "compute"
        # a counter the baseline lacks fails even where this run reads None
        del doc["kernels"]["softmax"]["hmma_issue_efficiency"]
        doc["kernels"]["ghost-kernel"] = {"classification": "memory"}
        del doc["kernels"]["spmm-fpu"]
        changed = self._check(smoke_profiles, doc)
        assert sorted(changed) == ["ghost-kernel", "softmax", "spmm-fpu"]
        assert [r["Counter"] for r in changed["softmax"]] == ["classification",
                                                              "hmma_issue_efficiency"]
        assert changed["ghost-kernel"] == [{"Counter": "classification", "baseline": "memory",
                                            "current": "n/a", "Delta": ""}]
        # a kernel the baseline lacks lists every counter of this run
        assert len(changed["spmm-fpu"]) == len(smoke_profiles["spmm-fpu"].counters())

    def test_config_mismatch_short_circuits(self, smoke_profiles):
        changed = self._check(smoke_profiles, self._baseline(smoke_profiles),
                              config=CONFIGS["fig20-k64"])
        assert list(changed) == ["config"]
        assert {r["Counter"] for r in changed["config"]} == {"name", "seq", "v", "density"}

    def test_checked_in_baseline_matches_current_code(self):
        """The repo's committed baseline must stay green on the config
        it pins (the CI profile job runs exactly this)."""
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "tools" / "profile_baseline.json"
        doc = profiler.load_baseline(path)
        config = CONFIGS[doc["config"]["name"]]
        assert self._check(profiler.profile_all(config), doc, config) == {}


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


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestProfileCli:
    def _run(self, tmp_path, *extra):
        return cli_main([
            "profile", "--config", "smoke",
            "--baseline", str(tmp_path / "baseline.json"), *extra])

    def test_unknown_config_and_kernel_exit_2(self, tmp_path, capsys):
        assert cli_main(["profile", "--config", "nope"]) == 2
        assert "valid choices" in capsys.readouterr().err
        assert self._run(tmp_path, "--kernel", "nope") == 2

    def test_smoke_gate_passes_against_a_fresh_baseline(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        assert self._run(tmp_path, "--smoke", "--check") == 0
        out = capsys.readouterr().out
        assert "every counter equal" in out
        assert "profile smoke: 13 kernels classified" in out

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        path = tmp_path / "baseline.json"
        doc = json.loads(path.read_text())
        doc["kernels"]["spmm-octet"]["time_us"] *= 0.5
        path.write_text(json.dumps(doc))
        assert self._run(tmp_path, "--check") == 1
        err = capsys.readouterr().err
        assert "spmm-octet" in err and "time_us" in err and "+100.0%" in err

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        assert self._run(tmp_path, "--check") == 2
        assert "update-baseline" in capsys.readouterr().err

    def test_default_baseline_is_found_from_any_directory(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "baseline check OK (13 kernels, every counter equal)" in out

    def test_smoke_names_a_missing_baseline(self, tmp_path, capsys):
        assert self._run(tmp_path, "--smoke") == 0
        missing = tmp_path / "baseline.json"
        assert f"baseline check skipped: {missing} does not exist" in capsys.readouterr().out

    def test_check_writes_no_file_but_the_ones_asked_for(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self._run(tmp_path, "--update-baseline") == 0
        assert self._run(tmp_path, "--smoke", "--check") == 0
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["baseline.json"]
        assert self._run(tmp_path, "--smoke", "--check", "--json", "p.json") == 0
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["baseline.json", "p.json"]

    def test_kernel_subset_and_diff(self, tmp_path, capsys):
        rc = self._run(tmp_path, "--kernel", "spmm-octet",
                       "--kernel", "spmm-fpu", "--diff",
                       "spmm-octet", "spmm-fpu")
        assert rc == 0
        out = capsys.readouterr().out
        assert "diff spmm-octet vs spmm-fpu" in out

    def test_json_document_written(self, tmp_path):
        assert self._run(tmp_path, "--json", str(tmp_path / "p.json"),
                         "--update-baseline") == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert set(doc) == {"schema", "config", "kernels", "roofline"}
        assert len(doc["kernels"]) == 13
        # the baseline is the same document, without the roofline
        del doc["roofline"]
        assert json.loads((tmp_path / "baseline.json").read_text()) == doc


# --------------------------------------------------------------------- #
# runner + serving threading
# --------------------------------------------------------------------- #
class TestThreading:
    def test_runner_manifest_records_memo_scope(self, capsys, tmp_path):
        runner.run_all(only=["table1"], out_dir=tmp_path)
        capsys.readouterr()
        entry = json.loads((tmp_path / "manifest.json").read_text())["table1"]
        assert entry["config"] and entry["seconds"] >= 0
        scope = entry["memo_scope"]
        assert scope and all(0 <= row["served"] <= row["lookups"]
                             for row in scope.values())
        assert list(tmp_path.glob("*.profile.json")) == []

    def test_serving_profile_summary_shape(self):
        result = simulate(get_scenario("steady"), 400, seed=3)
        doc = profile_summary(result)
        assert doc["per_tenant"]
        for row in doc["per_tenant"]:
            assert 0.0 <= row["slo_attainment"] <= 1.0
            assert row["within_slo"] <= row["completed"] <= row["offered"]
        occ = doc["ladder_occupancy"]
        assert occ and abs(sum(occ.values()) - 1.0) < 0.01
