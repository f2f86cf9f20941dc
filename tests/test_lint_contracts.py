"""Tests for the kernel contracts: two static lints and three runtime checks.

``seeded-rng`` and ``span-outside-memo`` are :mod:`repro.analysis` rules;
each test writes a minimal repo under ``tmp_path`` and runs one rule over
it.  The other three contracts are checked by running the kernels of the
case table :data:`repro.kernels.cases.KERNEL_CASES`, not by reading
their source:

* no kernel writes into its inputs, on the functional path and with
  ``simulate=True``, through its compiled plans and through the
  interpreted twins the test routes the same run to;
* production never reaches a twin: with every twin patched to raise,
  every case and every ``trace_*`` replay still runs;
* every class the dispatch registry can build is a row of the case
  table, which tier-1 drives through the profiler, the sanitizer and
  ``plans``;
* a case has a compiled plan exactly when its class keeps the
  interpreted ``_execute_simulated_reference`` twin, which
  ``plans --parity`` runs bit for bit against the plan.

Each runtime check is shown to catch its defect planted into a subclass
of a real kernel.  The tests named ``*_lint_*`` and ``*_twins_*`` keep
the names they had when these contracts were static lints.
"""

import inspect
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro import cli, plans
from repro.analysis import run_analysis
from repro.kernels import dispatch
from repro.kernels.cases import (
    KERNEL_CASES,
    KernelCase,
    csr_operand,
    cvse_operand,
    ell_operand,
    mask_operand,
)
from repro.hardware.cache import SectorCache
from repro.kernels import functional
from repro.kernels.cusparse import CusparseSddmmKernel
from repro.kernels.softmax_sparse import SparseSoftmaxKernel
from repro.kernels.spmm_fpu import FpuSpmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.perfmodel import memo, trace

REPO = Path(__file__).resolve().parents[1]

CONTRACT_RULES = [
    "seeded-rng",
    "span-outside-memo",
]

#: the arrays of a sparse operand that a kernel reads
SPARSE_ARRAYS = ("values", "row_ptr", "col_idx", "col_blocks")


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _findings(repo: Path, rule: str) -> List[str]:
    return [f.render() for f in run_analysis(repo, [rule])]


def _bad_repo(tmp_path: Path) -> Path:
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/bad.py", (
        "import numpy as np\n"
        "class UnseededKernel:\n"
        "    def _execute(self, a, b):\n"
        "        rng = np.random.default_rng()\n"
        "        return np.random.rand(4) + rng.random()\n"
    ))
    return tmp_path


# --------------------------------------------------------------------- #
# the runtime checks
# --------------------------------------------------------------------- #
def _operands(case: KernelCase) -> tuple:
    """Seeded fp16 operands of ``case``'s ``run``: ``(32 x 64) x (64 x 32)``."""
    rng = np.random.default_rng(0)
    m, k, n, v, density = 32, 64, 32, 4, 0.4
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    if case.operand == "cvse":
        sparse = cvse_operand(rng.random((m // v, k)) < density, v, rng)
        return (sparse,) if case.factory is SparseSoftmaxKernel else (sparse, b)
    if case.operand == "mask":
        return a, b, mask_operand(rng.random((m // v, n)) < density, v)
    if case.operand == "ell":
        return ell_operand((m, k), density, rng), b
    if case.operand == "csr" and case.factory is CusparseSddmmKernel:
        return a, b, csr_operand((m, n), density, rng)
    if case.operand == "csr":
        return csr_operand((m, k), density, rng), b
    return a, b


def _input_bytes(operands: tuple) -> Dict[str, bytes]:
    """The bytes of every input array: dense operands and sparse formats'."""
    out: Dict[str, bytes] = {}
    for i, op in enumerate(operands):
        if isinstance(op, np.ndarray):
            out[f"arg{i}"] = op.tobytes()
        for attr in SPARSE_ARRAYS:
            arr = getattr(op, attr, None)
            if isinstance(arr, np.ndarray):
                out[f"arg{i}.{attr}"] = arr.tobytes()
    return out


def _mutated_inputs(kern, operands: tuple) -> List[str]:
    """The input arrays whose bytes ``kern.run(*operands)`` changed.

    Only bytes count: the memo seals index arrays read-only and pins a
    digest to the format object, by design."""
    before = _input_bytes(operands)
    kern.run(*operands)
    after = _input_bytes(operands)
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name) != after.get(name))


def _unlisted_dispatch_classes() -> List[type]:
    """Dispatch-registered kernel classes that no case builds."""
    factories = {c.factory for c in KERNEL_CASES.values()}
    return [cls for reg in (dispatch.SPMM_KERNELS, dispatch.SDDMM_KERNELS)
            for cls in reg.values() if cls not in factories]


def _plan_twin_mismatches(table: Dict[str, KernelCase]) -> List[str]:
    """Cases with a compiled plan but no interpreted twin, or the reverse."""
    return [name for name, c in table.items()
            if (c.plan is not None) != hasattr(c.factory, "_execute_simulated_reference")]


#: (case name, simulate): every case, plus ``simulate=True`` where offered
RUNS = [(name, simulate) for name, case in KERNEL_CASES.items()
        for simulate in (False, True)
        if not simulate or "simulate" in inspect.signature(case.factory).parameters]
RUN_IDS = [f"{name}-{'simulate' if simulate else 'functional'}" for name, simulate in RUNS]

#: planned functional entry point -> its interpreted twin
FUNCTIONAL_TWINS = {
    functional.spmm_functional: functional.spmm_functional_reference,
    functional.sddmm_functional: functional.sddmm_functional_reference,
}


def _planned_classes() -> List[type]:
    return sorted({c.factory for c in KERNEL_CASES.values() if c.plan is not None},
                  key=lambda cls: cls.__name__)


def _route_to_twins(monkeypatch) -> int:
    """Send every planned path to its interpreted twin: each planned
    class's ``_execute_simulated`` and every kernel module's binding of
    a planned functional entry point.  Returns the routes patched."""
    routes = [(cls, "_execute_simulated", cls._execute_simulated_reference)
              for cls in _planned_classes()]
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("repro.kernels.") and mod is not functional:
            routes += [(mod, attr, FUNCTIONAL_TWINS[fn]) for attr, fn in vars(mod).items()
                       if callable(fn) and fn in FUNCTIONAL_TWINS]
    for target, attr, twin in routes:
        monkeypatch.setattr(target, attr, twin)
    return len(routes)


@pytest.mark.parametrize("path", ["plans", "no-plans"])
@pytest.mark.parametrize("name, simulate", RUNS, ids=RUN_IDS)
def test_kernels_leave_inputs_intact(name, simulate, path, monkeypatch):
    # "no-plans" runs the same case through the interpreted twins
    if path == "no-plans":
        _route_to_twins(monkeypatch)
    case = KERNEL_CASES[name]
    kern = case.kernel(simulate=True) if simulate else case.kernel()
    assert _mutated_inputs(kern, _operands(case)) == []


def test_runs_cover_every_case_and_simulated_path(monkeypatch):
    assert {name for name, _ in RUNS} == set(KERNEL_CASES)
    planned = sum(c.plan is not None for c in KERNEL_CASES.values())
    assert len(RUNS) == len(KERNEL_CASES) + planned == 19
    # the twin runs reach the 4 planned classes and the functional
    # bindings of the 6 octet/wmma/FPU kernel modules
    assert _route_to_twins(monkeypatch) == 4 + 6


def _raise_twin(*args, **kwargs):
    raise AssertionError("production reached an interpreted twin")


def test_production_never_reaches_a_twin(monkeypatch):
    for cls in _planned_classes():
        monkeypatch.setattr(cls, "_execute_simulated_reference", _raise_twin)
    for twin in FUNCTIONAL_TWINS.values():
        monkeypatch.setattr(functional, twin.__name__, _raise_twin)
    monkeypatch.setattr(SectorCache, "access_sectors", _raise_twin)
    for name, simulate in RUNS:
        case = KERNEL_CASES[name]
        kern = case.kernel(simulate=True) if simulate else case.kernel()
        kern.run(*_operands(case))
    rng = np.random.default_rng(0)
    a = cvse_operand(rng.random((8, 64)) < 0.4, 4, rng)
    mask = mask_operand(rng.random((8, 64)) < 0.4, 4)
    memo.set_enabled(False)  # replay every stream, none served from the memo
    try:
        trace.trace_octet_spmm(a, 64)
        trace.trace_blocked_ell(ell_operand((32, 64), 0.4, rng), 64)
        trace.trace_octet_sddmm(mask, 32)
        trace.trace_wmma_sddmm(mask, 32)
        trace.trace_gemm(64, 32, 64)
    finally:
        memo.set_enabled(None)


class _SubscriptStore(OctetSpmmKernel):
    def _execute(self, a, b):
        b[0, 0] = 2.0
        return super()._execute(a, b)


class _AttributeStore(OctetSpmmKernel):
    def _execute(self, a, b):
        a.values[0] += 2
        return super()._execute(a, b)


def _scale_in_place(buf):
    buf[0] = buf[0] * 2.0


class _HelperStore(OctetSpmmKernel):
    def _execute(self, a, b):
        _scale_in_place(b)
        return super()._execute(a, b)


class _Rebinding(OctetSpmmKernel):
    def _execute(self, a, b):
        b = b.copy()
        b[0, 0] = 2.0
        return super()._execute(a, b)


def _planted_mutations(planted: type) -> List[str]:
    return _mutated_inputs(planted(), _operands(KERNEL_CASES["spmm-octet"]))


def test_real_repo_is_clean():
    assert run_analysis(REPO, CONTRACT_RULES) == []
    assert _unlisted_dispatch_classes() == []
    assert _plan_twin_mismatches(KERNEL_CASES) == []


def test_parity_lint_flags_untested_kernel(monkeypatch):
    class UntestedKernel(FpuSpmmKernel):
        pass

    monkeypatch.setitem(dispatch.SPMM_KERNELS, "untested", UntestedKernel)
    assert _unlisted_dispatch_classes() == [UntestedKernel]


def test_mutation_lint_flags_input_stores():
    assert _planted_mutations(_SubscriptStore) == ["arg1"]
    assert _planted_mutations(_AttributeStore) == ["arg0.values"]


def test_helper_mutating_an_input_is_caught():
    assert _planted_mutations(_HelperStore) == ["arg1"]


def test_rng_lint_flags_unseeded_calls(tmp_path):
    findings = _findings(_bad_repo(tmp_path), "seeded-rng")
    assert any("default_rng() without a seed" in f for f in findings)
    assert any("np.random.rand()" in f for f in findings)


def test_mutation_lint_allows_rebinding():
    assert _planted_mutations(_Rebinding) == []


def test_span_outside_memo_flags_wrapped_builder(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/perfmodel/build.py", (
        "from ..obs.tracing import traced\n"
        "from .memo import memoised_rng\n"
        "@traced('build.stats')\n"
        "@memoised_rng('stats')\n"
        "def bad_builder(spec, rng):\n"
        "    return spec\n"
        "@memoised_rng('latency')\n"
        "@traced('build.latency')\n"
        "def inner_span_ok(spec, rng):\n"
        "    return spec\n"
        "@traced('plain')\n"
        "def plain_span_ok(spec):\n"
        "    return spec\n"
        "@memoised_rng('suite')\n"
        "def plain_memo_ok(spec, rng):\n"
        "    return spec\n"
    ))
    findings = _findings(tmp_path, "span-outside-memo")
    assert len(findings) == 1
    assert "bad_builder" in findings[0]
    assert "span-outside-memo" in findings[0]


def test_span_outside_memo_sees_attribute_decorators(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/perfmodel/build2.py", (
        "from repro.obs import tracing\n"
        "from repro.perfmodel import memo\n"
        "@tracing.traced('x')\n"
        "@memo.memoised_rng('stats')\n"
        "def also_bad(spec, rng):\n"
        "    return spec\n"
    ))
    findings = _findings(tmp_path, "span-outside-memo")
    assert len(findings) == 1
    assert "also_bad" in findings[0]


def test_plan_twins_flags_missing_reference():
    class PlannedFpuKernel(FpuSpmmKernel):
        pass

    planted = {
        "planned-fpu": KernelCase("planned-fpu", "cvse", PlannedFpuKernel,
                                  plan=plans.spmm_octet_plan),
        "unplanned-octet": KernelCase("unplanned-octet", "cvse", OctetSpmmKernel),
    }
    assert _plan_twin_mismatches(planted) == ["planned-fpu", "unplanned-octet"]


def test_plan_twins_flags_untested_reference(monkeypatch, capsys):
    # plans --parity runs every twin against its plan, bit for bit
    class WrongTwinKernel(OctetSpmmKernel):
        def _execute_simulated_reference(self, a, b):
            return np.zeros_like(super()._execute_simulated_reference(a, b))

    argv = ["plans", "--parity", "--rows", "32", "--cols", "64", "-N", "32", "-K", "32"]
    assert cli.main(argv) == cli.EXIT_CLEAN
    monkeypatch.setitem(KERNEL_CASES, "spmm-octet", KernelCase(
        "spmm-octet", "cvse", WrongTwinKernel, plan=plans.spmm_octet_plan))
    assert cli.main(argv) == cli.EXIT_FINDINGS
    rows = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
    assert len(rows) == 1 and rows[0].startswith("spmm-octet ")


def test_plan_twins_ignores_helper_imports():
    # the FPU kernels execute through repro.plans' functional helpers,
    # but compile no simulated plan, so they need no twin
    fpu = {n: c for n, c in KERNEL_CASES.items() if c.factory.__name__.startswith("Fpu")}
    assert sorted(fpu) == ["sddmm-fpu", "spmm-fpu"]
    assert _plan_twin_mismatches(fpu) == []


def test_cli_exit_codes(tmp_path, capsys):
    argv = ["analyze", *[arg for r in CONTRACT_RULES for arg in ("--rule", r)]]
    assert cli.main(argv + ["--repo", str(REPO)]) == cli.EXIT_CLEAN
    assert "0 new finding(s)" in capsys.readouterr().out
    assert cli.main(argv + ["--repo", str(_bad_repo(tmp_path))]) == cli.EXIT_FINDINGS
    assert cli.main(argv + ["--repo", str(tmp_path / "nowhere")]) == cli.EXIT_USAGE
