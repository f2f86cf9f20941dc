"""Failure-path coverage for the resilient runner (PR 4).

The fan-out scheduler must capture per-task failures without
discarding finished work, enforce wall-clock budgets, survive dead
workers, and shut down cleanly on interrupt; the runner on top must
persist artifacts incrementally and resume from its checkpoint
manifest.  Worker functions live at module level so the process pools
can pickle them.
"""

import json
import os
import time

import pytest

from repro.experiments.pool import (
    CRASHED,
    ERROR,
    INTERRUPTED,
    OK,
    TIMEOUT,
    TaskOutcome,
    effective_workers,
    resilient_map,
    retry_delay,
)
from repro.experiments.runner import SweepFailure, main, run_all
from repro.experiments.sharding import MANIFEST_NAME
from repro.obs import metrics, tracing


# --------------------------------------------------------------------- #
# picklable workers
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x + 1


def _exit_on_two(x):
    if x == 2:
        os._exit(17)  # simulated OOM-kill / segfault: no exception, no cleanup
    return x


def _sleep_on_one(x):
    if x == 1:
        time.sleep(60.0)
    return x


def _interrupt_on_one(x):
    if x == 1:
        raise KeyboardInterrupt
    return x


def _interrupt_late_on_one(x):
    if x == 1:
        time.sleep(1.0)
        raise KeyboardInterrupt
    return x


def _sleep_briefly(x):
    time.sleep(0.05)
    return x * 10


class TestResilientMap:
    def test_error_is_captured_not_raised(self):
        for jobs in (1, 3):
            outs = resilient_map(_raise_on_three, range(5), jobs=jobs)
            assert [o.status for o in outs] == [OK, OK, OK, ERROR, OK]
            assert [o.result for o in outs if o.ok] == [1, 2, 3, 5]
            bad = outs[3]
            assert "boom on 3" in bad.error
            assert "ValueError" in bad.traceback
            assert bad.attempts == 1

    def test_retries_are_bounded_and_counted(self):
        outs = resilient_map(_raise_on_three, [3], jobs=1, retries=2, backoff=0.0)
        assert outs[0].status == ERROR
        assert outs[0].attempts == 3  # 1 try + 2 retries, then gave up

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="retries"):
            resilient_map(_square, [1, 2], retries=-1)

    def test_worker_crash_spares_the_other_tasks(self):
        """A dying worker poisons every in-flight future; triage must
        convict only the real crasher."""
        outs = resilient_map(_exit_on_two, range(4), jobs=2)
        assert outs[2].status == CRASHED
        assert [outs[i].status for i in (0, 1, 3)] == [OK, OK, OK]
        assert [outs[i].result for i in (0, 1, 3)] == [0, 1, 3]

    def test_worker_timeout_is_enforced_in_pool_mode(self):
        t0 = time.monotonic()
        outs = resilient_map(_sleep_on_one, range(3), jobs=2, timeout=2.0)
        assert time.monotonic() - t0 < 30.0  # nowhere near the 60s sleep
        assert outs[1].status == TIMEOUT
        assert "2.0" in outs[1].error
        assert outs[0].status == OK and outs[2].status == OK

    def test_keyboard_interrupt_serial_returns_partial(self):
        outs = resilient_map(_interrupt_on_one, range(4), jobs=1)
        assert outs[0].status == OK
        assert outs[1].status == INTERRUPTED
        assert outs[2].status == INTERRUPTED and outs[2].attempts == 0
        assert outs[3].status == INTERRUPTED and outs[3].attempts == 0

    def test_keyboard_interrupt_pooled_returns_partial(self):
        """A worker-side Ctrl-C stops the sweep; finished tasks keep
        their outcomes and the pool is shut down (no hang)."""
        t0 = time.monotonic()
        outs = resilient_map(_interrupt_on_one, range(4), jobs=2)
        assert time.monotonic() - t0 < 30.0
        assert len(outs) == 4
        statuses = {o.status for o in outs}
        assert statuses <= {OK, INTERRUPTED}
        assert outs[1].status == INTERRUPTED

    def test_keyboard_interrupt_pooled_keeps_finished_results(self):
        """Partial-results capture: tasks that completed before the
        interrupt keep their OK outcome and result value."""
        outs = resilient_map(_interrupt_late_on_one, range(4), jobs=2)
        assert len(outs) == 4
        assert outs[0].status == OK and outs[0].result == 0
        assert outs[1].status == INTERRUPTED
        assert {outs[2].status, outs[3].status} <= {OK, INTERRUPTED}
        for o in outs[2:]:
            if o.status == OK:
                assert o.result == o.index

    def test_on_outcome_sees_every_settled_task(self):
        seen = []
        resilient_map(_square, range(6), jobs=3, on_outcome=lambda o: seen.append(o.index))
        assert sorted(seen) == list(range(6))

    def test_empty_input(self):
        assert resilient_map(_square, [], jobs=4) == []


class TestRetrySchedule:
    def test_retry_delay_is_pure_exponential_no_jitter(self):
        assert [retry_delay(a, 0.05) for a in range(4)] == [0.05, 0.1, 0.2, 0.4]
        # same inputs, same schedule — nothing random in the backoff
        assert [retry_delay(a, 0.05) for a in range(4)] == \
            [retry_delay(a, 0.05) for a in range(4)]

    def test_serial_retry_sleeps_follow_the_schedule(self, monkeypatch):
        """The serial path's actual sleeps are exactly
        ``backoff * 2**attempt`` for attempts 0..retries-1."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        outs = resilient_map(_raise_on_three, [3], jobs=1, retries=3,
                             backoff=0.05)
        assert outs[0].status == ERROR and outs[0].attempts == 4
        assert slept == [0.05, 0.1, 0.2]


class TestTimeoutParity:
    """Serial and pooled runs must report comparable timeout pressure."""

    def _timeout_count(self):
        return metrics.counters().get("pool.timeouts", 0.0)

    def test_serial_overrun_emits_counter_and_note(self):
        tracing.enable()
        metrics.reset()
        try:
            outs = resilient_map(_sleep_briefly, [1], jobs=1, timeout=0.01)
            # the task cannot be killed in-process: result survives...
            assert outs[0].status == OK and outs[0].result == 10
            # ...but the overrun is counted and annotated
            assert self._timeout_count() == 1.0
            assert "overran" in outs[0].note and "0.01" in outs[0].note
        finally:
            tracing.set_enabled(None)
            metrics.reset()

    def test_serial_within_budget_stays_silent(self):
        tracing.enable()
        metrics.reset()
        try:
            outs = resilient_map(_sleep_briefly, [1], jobs=1, timeout=30.0)
            assert outs[0].status == OK and outs[0].note == ""
            assert self._timeout_count() == 0.0
        finally:
            tracing.set_enabled(None)
            metrics.reset()

    def test_pooled_timeout_emits_the_same_counter(self):
        tracing.enable()
        metrics.reset()
        try:
            outs = resilient_map(_sleep_on_one, range(2), jobs=2, timeout=2.0)
            assert outs[1].status == TIMEOUT
            assert self._timeout_count() == 1.0
        finally:
            tracing.set_enabled(None)
            metrics.reset()


class TestParallelMapCompat:
    def test_workers_capped_at_task_count(self):
        assert effective_workers(8, 3) == 3
        assert effective_workers(2, 10) == 2
        assert effective_workers(0, 5) == 1
        assert effective_workers(4, 0) == 1


class TestRunnerDegradation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_all(only=["fig5"], jobs=-2)
        assert main(["--only", "fig5", "--jobs", "-2"]) == 2

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="--out"):
            run_all(only=["fig5"], resume=True)
        assert main(["--only", "fig5", "--resume"]) == 2

    def test_failed_experiment_degrades_not_aborts(self, tmp_path, monkeypatch, capsys):
        """One raising experiment: the other completes, its artifact is
        written, a failure report prints, and main exits 1."""
        monkeypatch.setenv("REPRO_CHAOS", "raise:fig6")
        with pytest.raises(SweepFailure) as info:
            run_all(only=["fig5", "fig6"], out_dir=tmp_path)
        assert "fig5" in info.value.results
        assert [n for n, _ in info.value.failures] == ["fig6"]
        assert (tmp_path / "fig5.txt").is_file()
        assert not (tmp_path / "fig6.txt").exists()
        captured = capsys.readouterr().out
        assert "failure report" in captured
        assert "chaos hook" in captured  # traceback of the injected raise

    def test_degraded_sweep_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise:fig5")
        rc = main(["--only", "fig5", "--out", str(tmp_path)])
        assert rc == 1

    def test_crashed_worker_degrades_pooled_sweep(self, tmp_path, monkeypatch):
        """os._exit in one experiment's worker (simulated OOM): the
        sibling experiment still completes and persists."""
        monkeypatch.setenv("REPRO_CHAOS", "crash:fig5")
        with pytest.raises(SweepFailure) as info:
            run_all(only=["fig5", "fig6"], out_dir=tmp_path, jobs=2)
        assert [n for n, _ in info.value.failures] == ["fig5"]
        assert "fig6" in info.value.results
        assert (tmp_path / "fig6.txt").is_file()


class TestResume:
    def test_resume_round_trip(self, tmp_path, capsys):
        """Run, then resume: the checkpointed experiment is skipped;
        a stale checkpoint (different config) or missing artifact
        forces a rerun."""
        run_all(only=["fig5"], out_dir=tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "fig5" in manifest and manifest["fig5"]["checksum"]
        capsys.readouterr()

        # matching checkpoint: skipped
        results = run_all(only=["fig5"], out_dir=tmp_path, resume=True)
        assert results == {}
        assert "fig5: skipped" in capsys.readouterr().out

        # stale config (quick -> full would differ; use trace flag): rerun
        results = run_all(only=["fig5"], out_dir=tmp_path, resume=True, trace=True)
        assert "fig5" in results
        capsys.readouterr()

        # artifact deleted out from under the manifest: rerun
        (tmp_path / "fig5.txt").unlink()
        results = run_all(only=["fig5"], out_dir=tmp_path, resume=True, trace=True)
        assert "fig5" in results

    def test_resume_after_kill_completes_the_sweep(self, tmp_path, monkeypatch, capsys):
        """Simulated kill mid-sweep (one experiment dies), then a
        resumed run without the fault finishes only the missing one."""
        monkeypatch.setenv("REPRO_CHAOS", "raise:fig6")
        with pytest.raises(SweepFailure):
            run_all(only=["fig5", "fig6"], out_dir=tmp_path)
        monkeypatch.delenv("REPRO_CHAOS")
        capsys.readouterr()

        results = run_all(only=["fig5", "fig6"], out_dir=tmp_path, resume=True)
        out = capsys.readouterr().out
        assert "fig5: skipped" in out
        assert list(results) == ["fig6"]
        assert (tmp_path / "fig6.txt").is_file()
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(manifest) == {"fig5", "fig6"}

    def test_outcome_dataclass_defaults(self):
        out = TaskOutcome(index=7)
        assert out.status == INTERRUPTED and not out.ok and out.attempts == 0
