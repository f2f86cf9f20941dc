"""Tests for the kernel sanitizer: corpus, clean sweep, validation hooks, CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.hardware.register_file import KernelResources
from repro.hardware.thread_hierarchy import LaunchConfig
from repro.perfmodel.events import GlobalTraffic, KernelStats
from repro.sanitizer import Checker, KERNEL_CASES, SUITES, sanitize
from repro.sanitizer import corpus, memcheck, racecheck, statcheck
from repro.sanitizer.findings import Finding, SanitizerReport, format_reports


class TestInjectedViolationCorpus:
    """Each deliberately-broken fixture trips exactly its own checker."""

    @pytest.mark.parametrize(
        "expected, build",
        [
            (Checker.MEMCHECK, corpus.oob_column_index_report),
            (Checker.RACECHECK, corpus.missing_barrier_report),
            (Checker.SYNCCHECK, corpus.divergent_barrier_report),
            (Checker.OWNERSHIP, corpus.unowned_writeback_report),
            (Checker.OWNERSHIP, corpus.dropped_switch_report),
            (Checker.STATCHECK, corpus.inflated_flops_report),
        ],
        ids=["oob-column", "missing-barrier", "divergent-barrier",
             "unowned-writeback", "dropped-switch", "inflated-flops"],
    )
    def test_fixture_trips_only_its_checker(self, expected, build):
        report = build()
        assert not report.ok
        assert {f.checker for f in report.findings} == {expected}

    def test_all_reports_covers_every_checker(self):
        reports = corpus.all_reports()
        assert set(reports) == set(Checker)
        for checker, report in reports.items():
            assert {f.checker for f in report.findings} == {checker}


class TestCleanSweep:
    """Every shipped kernel passes every applicable checker."""

    def test_smoke_suite_zero_findings(self):
        reports = sanitize(suite="smoke")
        assert len(reports) == len(KERNEL_CASES)
        bad = [str(f) for r in reports for f in r.findings]
        assert not bad, "\n".join(bad)
        # zero findings must mean the checkers actually ran
        for r in reports:
            assert "statcheck" in r.checks_run
            assert sum(r.counters.values()) > 0

    def test_reports_are_labelled_with_kernel_names(self):
        reports = sanitize(suite="smoke")
        assert [r.kernel for r in reports] == [
            case.kernel().name for case in KERNEL_CASES.values()]

    def test_octet_kernels_get_ownership_checked(self):
        reports = {r.kernel: r for r in sanitize(
            ["spmm-octet", "sddmm-octet-arch"], suite="smoke")}
        for rep in reports.values():
            assert "ownership" in rep.checks_run
            assert rep.counters.get("octet_mmas", 0) > 0

    def test_unknown_kernel_and_suite_rejected(self):
        with pytest.raises(ValueError, match="valid choices"):
            sanitize(["no-such-kernel"])
        with pytest.raises(ValueError, match="valid choices"):
            sanitize(suite="no-such-suite")
        assert set(SUITES) == {"smoke", "default", "full"}


class TestValidatingPostInit:
    """Construction-time contract enforcement on the stats dataclasses."""

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            GlobalTraffic(load_requests=-1.0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            GlobalTraffic(bytes_l2_to_l1=float("nan"))

    def test_sector_per_request_cap_rejected(self):
        # one warp-level request cannot touch more than 32 sectors
        with pytest.raises(ValueError, match="sectors per"):
            GlobalTraffic(load_requests=1.0, load_sectors=100.0)
        # at the cap is fine
        GlobalTraffic(load_requests=1.0, load_sectors=32.0)

    def test_kernel_stats_field_contracts(self):
        launch = LaunchConfig(grid_x=1, cta_size=32)
        res = KernelResources(cta_size=32, registers_per_thread=32)
        with pytest.raises(ValueError, match="ilp"):
            KernelStats(name="bad", launch=launch, resources=res, ilp=0.5)
        with pytest.raises(ValueError, match="stall_correlation"):
            KernelStats(name="bad", launch=launch, resources=res, stall_correlation=1.5)
        with pytest.raises(ValueError, match="work_imbalance"):
            KernelStats(name="bad", launch=launch, resources=res, work_imbalance=0.2)
        with pytest.raises(ValueError, match="flops"):
            KernelStats(name="bad", launch=launch, resources=res, flops=-1.0)


class TestCheckerUnits:
    def test_memcheck_flags_misaligned_run(self):
        amap = memcheck.AddressMap(
            kernel="unit",
            regions=(memcheck.Region("B", 0, 4096, align=128, run_quantum=4),),
        )
        # a 3-sector run starting one sector off the 128 B boundary
        stream = [(0, [np.array([1, 2, 3])])]
        findings, counters = memcheck.check_stream(stream, amap)
        assert findings and all(f.checker is Checker.MEMCHECK for f in findings)
        assert counters["sectors"] == 3

    def test_memcheck_clean_transactions(self):
        amap = memcheck.AddressMap(
            kernel="unit",
            regions=(memcheck.Region("B", 0, 4096, align=128, run_quantum=4),),
        )
        stream = [(0, [np.arange(4), np.arange(8, 16)])]
        findings, _ = memcheck.check_stream(stream, amap)
        assert not findings

    def test_racecheck_clean_plan(self):
        plan = racecheck.staged_plan(
            "unit", warps=4, shared_bytes=4096, stage_bytes=4096, k_steps=3)
        findings, counters = racecheck.check_shared_plan(plan)
        assert not findings
        assert counters["barriers"] > 0

    def test_racecheck_flags_overlapping_stores(self):
        plan = racecheck.staged_plan(
            "unit", warps=4, shared_bytes=4096, stage_bytes=4096,
            k_steps=1, store_overlap=64)
        findings, _ = racecheck.check_shared_plan(plan)
        assert findings
        assert {f.checker for f in findings} == {Checker.RACECHECK}

    def test_racecheck_flags_shared_oob(self):
        plan = racecheck.SharedPlan(kernel="unit", warps=1, shared_bytes=256)
        plan.phases.append([racecheck.SharedAccess(0, 192, 128, True)])
        findings, _ = racecheck.check_shared_plan(plan)
        assert findings and findings[0].checker is Checker.MEMCHECK

    def test_statcheck_flags_infeasible_occupancy(self):
        launch = LaunchConfig(grid_x=1, cta_size=1024)
        res = KernelResources(
            cta_size=1024, registers_per_thread=255,
            shared_bytes_per_cta=96 * 1024,
        )
        stats = KernelStats(name="fat", launch=launch, resources=res)
        findings, _ = statcheck.check_stats(stats)
        assert any("occupancy" in f.message for f in findings)

    def test_statcheck_flags_dram_above_l2_stream(self):
        launch = LaunchConfig(grid_x=1, cta_size=32)
        res = KernelResources(cta_size=32, registers_per_thread=32)
        stats = KernelStats(name="inv", launch=launch, resources=res)
        stats.global_mem.bytes_l2_to_l1 = 1000.0
        stats.global_mem.bytes_dram_to_l2 = 2000.0
        findings, _ = statcheck.check_stats(stats)
        assert any("bytes_dram_to_l2" in f.message for f in findings)


class TestFindingsModel:
    def test_report_formatting(self):
        rep = SanitizerReport(kernel="k")
        rep.ran(Checker.MEMCHECK)
        assert rep.ok
        rep.extend([Finding(Checker.MEMCHECK, "k", "boom", "cta 0")])
        assert not rep.ok
        text = format_reports([rep], verbose=True)
        assert "[memcheck] k @ cta 0: boom" in text
        assert "1 finding(s)" in text


class TestSanitizeCli:
    def test_smoke_run_exits_zero(self, capsys):
        assert main(["sanitize", "--kernel", "softmax", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "softmax-cvse: OK" in out

    def test_unknown_kernel_exits_two(self, capsys):
        assert main(["sanitize", "--kernel", "no-such-kernel"]) == 2
        assert "valid choices" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["sanitize", "--suite", "no-such-suite"]) == 2
        assert "valid choices" in capsys.readouterr().err

    def test_bench_kernel_filter_validates(self, capsys):
        assert main(["--op", "spmm", "--kernel", "nope",
                     "--rows", "64", "--cols", "64"]) == 2
        assert "valid choices" in capsys.readouterr().err

    def test_bench_kernel_filter_selects(self, capsys):
        assert main(["--op", "spmm", "--kernel", "octet",
                     "--rows", "64", "--cols", "128", "-N", "64"]) == 0
        out = capsys.readouterr().out
        assert "mma (octet)" in out
        assert "blocked-ELL" not in out
