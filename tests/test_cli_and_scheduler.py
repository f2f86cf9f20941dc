"""Tests for the repro-bench CLI and the work-distributor simulation."""

import numpy as np
import pytest

from repro.cli import bench_sddmm, bench_spmm, build_parser, main
from repro.datasets import generate_topology
from repro.formats.io import write_smtx
from repro.hardware.config import VOLTA_V100
from repro.obs import metrics, tracing
from repro.perfmodel.reuse import work_imbalance

from .work_distributor import simulate_schedule


class TestScheduler:
    def test_uniform_work_balanced(self):
        res = simulate_schedule(np.ones(8000))  # 100 waves of 80
        assert res.imbalance == pytest.approx(1.0, abs=0.02)
        assert res.sm_busy.sum() == pytest.approx(8000)

    def test_wave_quantisation(self):
        res = simulate_schedule(np.ones(81))  # one straggler wave
        assert res.imbalance == pytest.approx(2.0, rel=0.02)

    def test_makespan_single_long_cta(self):
        durations = np.ones(100)
        durations[0] = 1000.0
        res = simulate_schedule(durations, ctas_per_sm=1)
        assert res.makespan == pytest.approx(1000.0)

    def test_empty_grid(self):
        res = simulate_schedule([])
        assert res.makespan == 0.0
        assert res.waves == 0

    def test_waves_counted(self):
        slots = VOLTA_V100.num_sms * 32
        res = simulate_schedule(np.ones(slots + 1), ctas_per_sm=32)
        assert res.waves == 2

    def test_greedy_beats_static_assignment(self):
        """Dynamic dispatch keeps imbalance below the static round-robin
        bound the closed-form factor is derived from."""
        rng = np.random.default_rng(3)
        durations = rng.lognormal(0.0, 1.0, size=4000)
        res = simulate_schedule(durations)
        static_factor = work_imbalance(durations, VOLTA_V100.num_sms, dampening=1.0)
        assert res.imbalance <= static_factor + 0.05

    def test_closed_form_brackets_simulation(self):
        """The dampened factor the latency model uses should sit near
        the simulated makespan inflation for DLMC-like tails."""
        rng = np.random.default_rng(4)
        csr = generate_topology((2048, 1024), 0.9, rng)
        work = csr.row_nnz().astype(float)
        sim = simulate_schedule(work).imbalance
        model = work_imbalance(work, VOLTA_V100.num_sms)
        assert abs(model - sim) < 0.35
        assert model >= 1.0 and sim >= 1.0


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.op == "spmm"
        assert args.vector_length == 4

    def test_bench_spmm_rows(self):
        csr = generate_topology((128, 256), 0.85, np.random.default_rng(0))
        rows, reports = bench_spmm(csr, 4, 128)
        names = [r["kernel"] for r in rows]
        assert names[0] == "cublasHgemm"
        assert "mma (octet)" in names and "blocked-ELL" in names
        assert all(r["time_us"] > 0 for r in rows if r["kernel"])

    def test_bench_sddmm_rows(self):
        csr = generate_topology((128, 256), 0.85, np.random.default_rng(0))
        rows, reports = bench_sddmm(csr, 4, 128)
        names = [r["kernel"] for r in rows]
        assert "mma (arch)" in names and "fpu (sputnik)" in names
        assert len(reports) == 5

    def test_main_synthetic(self, capsys):
        rc = main(["--rows", "64", "--cols", "128", "--sparsity", "0.8",
                   "--op", "spmm", "-V", "2", "-N", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cublasHgemm" in out and "mma (octet)" in out

    def test_main_smtx(self, tmp_path, capsys):
        csr = generate_topology((64, 128), 0.8, np.random.default_rng(1))
        p = tmp_path / "m.smtx"
        write_smtx(p, csr)
        rc = main(["--smtx", str(p), "--op", "sddmm", "-V", "4", "-K", "64"])
        assert rc == 0
        assert "SDDMM" in capsys.readouterr().out

    def test_main_bad_file(self, capsys):
        rc = main(["--smtx", "/nonexistent/x.smtx"])
        assert rc == 2

    def test_v1_skips_tcu_kernels(self):
        csr = generate_topology((64, 128), 0.8, np.random.default_rng(1))
        rows, _ = bench_spmm(csr, 1, 64)
        names = [r["kernel"] for r in rows]
        assert "mma (octet)" not in names
        assert "fpu (sputnik)" in names


#: every subcommand's exit-code contract: (id, argv, exit code); ``{tmp}``
#: is a fresh directory holding one regular file, ``{tmp}/file``
SUBCOMMAND_CASES = [
    ("sanitize-clean", ["sanitize", "--smoke"], 0),
    ("sanitize-verbose-short", ["sanitize", "--smoke", "-v"], 0),
    ("sanitize-bad", ["sanitize", "--kernel", "bogus"], 2),
    ("faults-clean", ["faults", "--smoke"], 0),
    ("faults-bad", ["faults", "--campaign", "bogus"], 2),
    ("obs-clean", ["obs", "--smoke"], 0),
    ("obs-bad", ["obs", "--only", "bogus"], 2),
    ("plans-clean", ["plans", "--parity"], 0),
    ("plans-bad", ["plans", "--sparsity", "1.5"], 2),
    ("memo-clean", ["memo", "--dir", "{tmp}/store"], 0),
    ("memo-bad", ["memo", "--dir", "{tmp}/file"], 2),
    ("merge-bad", ["merge", "{tmp}/nowhere", "--out", "{tmp}/merged"], 2),
    ("serve-bad", ["serve", "--scenario", "bogus"], 2),
    ("profile-bad", ["profile", "--config", "bogus"], 2),
    ("analyze-bad", ["analyze", "--rule", "bogus"], 2),
    ("table-bad", ["--kernel", "bogus"], 2),
    # size flags: a bad value is a usage error naming the flag
    ("table-rows-zero", ["--rows", "0"], 2),
    ("table-cols-zero", ["--cols", "0"], 2),
    ("table-n-zero", ["-N", "0"], 2),
    ("table-k-negative", ["--op", "sddmm", "-K", "-3"], 2),
    ("plans-rows-zero", ["plans", "--rows", "0"], 2),
    ("plans-cols-zero", ["plans", "--cols", "0"], 2),
    ("plans-n-negative", ["plans", "-N", "-2"], 2),
    ("plans-k-negative", ["plans", "-K", "-1"], 2),
    ("profile-top-negative", ["profile", "--top", "-1"], 2),
    ("profile-top-zero", ["profile", "--top", "0"], 2),
    ("obs-top-negative", ["obs", "--top", "-1"], 2),
]


@pytest.fixture
def fresh_obs():
    """``obs`` turns tracing on and records spans; leave no trace behind."""
    yield
    tracing.set_enabled(None)
    tracing.reset()
    metrics.reset()


@pytest.mark.parametrize("argv, code", [c[1:] for c in SUBCOMMAND_CASES],
                         ids=[c[0] for c in SUBCOMMAND_CASES])
def test_subcommand_exit_code_contract(argv, code, tmp_path, capsys, fresh_obs):
    (tmp_path / "file").write_text("")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["-N", "0"], "error: -N must be a positive integer, got 0\n"),
    (["plans", "--rows", "x"], "error: --rows must be a positive integer, got x\n"),
    (["obs", "--top", "-1"], "error: --top must be a non-negative integer, got -1\n"),
])
def test_size_flag_error_names_the_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == message

