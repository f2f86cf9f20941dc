"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They check that ``BENCHMARK.json`` and the command agree on every
workload and metric name, that the seed drives the generated inputs
and nothing else, and that the command refuses what it cannot run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd), text=True,
                          capture_output=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_names_track_the_program():
    from repro.experiments.runner import EXPERIMENTS
    from repro.profiler import KERNEL_NAMES

    assert tuple(EXPERIMENTS) == run.EXPERIMENTS
    assert tuple(workloads.KERNEL_CASES) == KERNEL_NAMES
    for target in layers.TARGETS:
        layers._resolve(target.path)  # raises if the program renamed it


def _kernel_inputs(seed: int):
    return [(p.dense.tobytes(), p.b.tobytes(), p.q.tobytes(), p.kt.tobytes())
            for p in workloads.problem_stream(seed, 64)]


def test_seed_drives_the_generated_inputs():
    assert _kernel_inputs(0) == _kernel_inputs(0)
    assert _kernel_inputs(0) != _kernel_inputs(1)
    serve = workloads.ServeOverload()
    serve.setup(0, 1)
    first = serve.seeds
    serve.setup(1, 1)
    assert first[0] == 0 and set(first).isdisjoint(serve.seeds)


def _serve_summary(seed, digest="d", **outcomes):
    oc = {"pending": 0, "completed": 10, "shed-admission": 0, "shed-queue": 0,
          "expired": 0, "failed": 0, "corrupt-served": 0, **outcomes}
    counters = {k: 0.0 for k in ("batches", "completed", "shed_admission", "shed_queue",
                                 "retries", "hedges")}
    return {"seed": seed, "outcomes": oc, "digest": digest, "counters": counters, "n": 10}


def test_serve_check_covers_every_pass():
    good = [_serve_summary(0), _serve_summary(1)]
    check = workloads.ServeOverload().check([good, good, good])
    assert not check.errors and check.attempted == 60 and check.failed == 0

    late_pending = [_serve_summary(0), _serve_summary(1, completed=9, pending=1)]
    check = workloads.ServeOverload().check([good, good, late_pending])
    assert check.failed == 1 and any("1 pending" in e for e in check.errors)

    drifted = [_serve_summary(0), _serve_summary(1, digest="other")]
    check = workloads.ServeOverload().check([good, good, drifted])
    assert any("seed 1: same-seed rerun" in e for e in check.errors)


def test_experiments_check_counts_every_pass():
    from types import SimpleNamespace as NS

    verdict = NS(verdict="reproduced", claim_id="c", measured=1.0, as_row=lambda: ["c"])
    ok = ({"fig4": NS(rows=[[1]], notes=[])}, [], [verdict])
    failed = ({}, ["fig4"], [verdict])
    sweep = workloads.SweepQuick()
    sweep.selected = ["fig4"]
    check = sweep.check([ok, ok, ok])
    assert not check.errors and check.attempted == 3 and check.failed == 0
    check = sweep.check([ok, ok, failed])
    assert check.attempted == 3 and check.failed == 1
    assert "experiment fig4 failed" in check.errors


def test_probe_reports_its_time():
    import time

    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), repr(time.monotonic())],
                          text=True, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["probe_s"] > 0


def test_other_seed_same_metric_names():
    a = _result(_run("--workload", "serve-overload", "--seed", "0", "--seconds", "1",
                     "--trace", "0"))
    b = _result(_run("--workload", "serve-overload", "--seed", "3", "--seconds", "1",
                     "--trace", "0"))
    assert a["correct"] and b["correct"]
    assert list(a["metrics"]) == list(b["metrics"]) == list(run.END_TO_END)
    assert a["metrics"]["wall_s"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    out = _result(_run("--workload", "serve-overload", "--seed", "0", "--seconds", "1",
                       "--trace", "1"))
    assert out["correct"], out
    assert list(out["metrics"]) == list(run.per_layer_units())
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["serving.loop_s"] > 0 and m["serving.batches"] > 0
    assert m["unattributed_s"] >= 0


def test_unknown_workload_exits_nonzero():
    proc = _run("--workload", "no-such-workload", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tree_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernels",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), env=env, text=True, capture_output=True,
                          timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("name", sorted(layers.LAYER_METRICS))
def test_every_layer_has_a_target(name):
    assert any(t.layer == name for t in layers.TARGETS)
