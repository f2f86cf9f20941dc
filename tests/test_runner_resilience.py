"""Failure-path coverage for the resilient runner.

The fan-out scheduler must capture per-task failures without
discarding finished work, convict exactly the tasks whose workers die,
and shut down cleanly on interrupt; the runner on top must persist
artifacts incrementally and resume from its checkpoint manifest.
Worker functions live at module level so they pickle under any start
method.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.experiments.pool import (
    CRASHED,
    ERROR,
    INTERRUPTED,
    OK,
    TaskOutcome,
    resilient_map,
)
from repro.experiments.runner import SweepFailure, main, run_all
from repro.experiments.sharding import MANIFEST_NAME


# --------------------------------------------------------------------- #
# picklable workers
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x + 1


def _exit_on_two_and_five(x):
    if x in (2, 5):
        os._exit(17)  # simulated OOM-kill / segfault: no exception, no cleanup
    return x


def _pid(_x):
    return os.getpid()


def _interrupt_on_one(x):
    if x == 1:
        raise KeyboardInterrupt
    return x


def _interrupt_late_on_one(x):
    if x == 1:
        time.sleep(1.0)
        raise KeyboardInterrupt
    return x


#: a 2-worker sweep that records each worker's pid in ``argv[1]``
_NAP_SWEEP = """
import os, sys, time
from repro.experiments.pool import resilient_map

def nap(x):
    open(os.path.join(sys.argv[1], f"{os.getpid()}.pid"), "w").close()
    time.sleep(1.0)
    return x

if __name__ == "__main__":
    resilient_map(nap, range(8), jobs=2)
"""


def _running(pid):
    """Whether ``pid`` is alive and not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestResilientMap:
    def test_error_is_captured_not_raised(self):
        for jobs in (1, 3):
            outs = resilient_map(_raise_on_three, range(5), jobs=jobs)
            assert [o.status for o in outs] == [OK, OK, OK, ERROR, OK]
            assert [o.result for o in outs if o.ok] == [1, 2, 3, 5]
            bad = outs[3]
            assert "boom on 3" in bad.error
            assert "ValueError" in bad.traceback

    def test_worker_crash_spares_the_other_tasks(self):
        """A worker holds one task at a time, so each dying worker
        convicts exactly its own task and fresh workers finish the rest."""
        outs = resilient_map(_exit_on_two_and_five, range(7), jobs=2)
        assert [o.index for o in outs if o.status == CRASHED] == [2, 5]
        assert all(outs[i].error == "worker exited with code 17" for i in (2, 5))
        assert [o.result for o in outs if o.ok] == [0, 1, 3, 4, 6]

    def test_tasks_run_in_jobs_long_lived_workers(self):
        """Workers live for the whole sweep: 10 tasks at ``jobs=2`` run
        in exactly two worker processes, neither of them the caller."""
        pids = {o.result for o in resilient_map(_pid, range(10), jobs=2)}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_keyboard_interrupt_serial_returns_partial(self):
        outs = resilient_map(_interrupt_on_one, range(4), jobs=1)
        assert outs[0].status == OK
        assert [o.status for o in outs[1:]] == [INTERRUPTED] * 3

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
        assert multiprocessing.active_children() == []  # no orphaned workers

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent runs no cleanup; its workers must still
        exit once they find their pipe closed."""
        script = tmp_path / "sweep.py"
        script.write_text(_NAP_SWEEP)
        sweep = subprocess.Popen([sys.executable, str(script), str(tmp_path)])
        deadline = time.monotonic() + 30.0
        while len(list(tmp_path.glob("*.pid"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        sweep.kill()
        sweep.wait()
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert len(pids) == 2
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))

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


class TestRunnerDegradation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_all(only=["fig5"], jobs=-2)
        assert main(["--only", "fig5", "--jobs", "-2"]) == 2

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="--out"):
            run_all(only=["fig5"], resume=True)
        assert main(["--only", "fig5", "--resume"]) == 2

    def test_retry_and_timeout_options_are_gone(self):
        for argv in (["--retries", "1"], ["--timeout", "5"]):
            with pytest.raises(SystemExit) as info:
                main(["--only", "fig5", *argv])
            assert info.value.code == 2

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
        [(name, out)] = info.value.failures
        assert (name, out.status, out.error) == ("fig5", CRASHED, "worker exited with code 13")
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
        assert out.status == INTERRUPTED and not out.ok
