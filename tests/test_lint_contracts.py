"""Tests for the system's contracts, each checked by running the code.

The kernel contracts run the kernels of the case table
:data:`repro.kernels.cases.KERNEL_CASES`:

* no kernel writes into its inputs, on the functional path and with
  ``simulate=True``, through its compiled plans and through the
  interpreted twins in ``tests/oracles`` the test routes the same run
  to;
* production never reaches a twin: with every oracle in
  ``tests/oracles`` patched to raise, every case and every ``trace_*``
  replay still runs;
* every class the dispatch registry can build is a row of the case
  table, which tier-1 drives through the profiler, the sanitizer tests
  and the plan parity test;
* a case has a compiled plan exactly when its class is a key of the
  oracle registry :data:`tests.oracles.ORACLES`, whose walk
  ``tests/test_plans.py`` runs bit for bit against the plan;
* fp16 operands, fp32 accumulation: on dyadic fp16 operands every SpMM,
  SDDMM and GEMM case, functional and simulated, equals the exact sum
  bit for bit, where an fp16 accumulator loses the quarters next to the
  1024s.

The contracts of the layers around the kernels run over the shared run
set of ``tests/runset.py``:

* seeded RNG: two fresh processes with different ``PYTHONHASHSEED``
  give the same digests, and a pass leaves NumPy's global generator
  untouched;
* spans inside the memo boundary: ``traced()`` raises ``TypeError``
  over a memoised function, when the module defining it is imported;
* one registry of env gates: under a recording ``os.environ``, every
  ``REPRO_*`` read comes from :mod:`repro.envgates`, and every declared
  gate is read;
* the obs naming schema: every span and metric name a traced pass emits
  matches :mod:`repro.obs.schema`, every declared name fires, and every
  ``DERIVED`` input is a declared counter;
* sound memo keys: with the cache filled under the default gate state,
  flipping each flag gate leaves memo-on results bit-identical to
  memo-off ones.

Each check is shown to catch its defect planted into a real module: the
planted function is bound over the original for one test (compiled in
that module's namespace, or, for the fresh-process check, in the child).  The tests named ``*_lint_*`` and
``*_twins_*`` keep the names they had when these contracts were static
lints.
"""

import ast
import contextlib
import json
import os
import subprocess
import sys
import textwrap
import types
from collections.abc import MutableMapping
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro import cli, envgates, plans
from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.hardware import tensor_core
from repro.kernels import dispatch, functional
from repro.kernels.cases import (
    KERNEL_CASES,
    KernelCase,
    csr_operand,
    cvse_operand,
    ell_operand,
    mask_operand,
)
from repro.kernels.cusparse import CusparseSddmmKernel
from repro.kernels.gemm import DenseGemmKernel
from repro.kernels.softmax_sparse import SparseSoftmaxKernel
from repro.kernels.spmm_fpu import FpuSpmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.obs import metrics, schema, tracing
from repro.perfmodel import memo, trace

from . import oracles, runset
from .oracles import ORACLES, SectorCache
from .runset import RUN_IDS, RUNS, operands
from .test_plans import PLANNED, plan_oracle_mismatches

REPO = Path(__file__).resolve().parents[1]

#: the arrays of a sparse operand that a kernel reads
SPARSE_ARRAYS = ("values", "row_ptr", "col_idx", "col_blocks")


def _plant(monkeypatch, owner, source: str, **names) -> None:
    """Bind over ``owner`` (a module or a class) the function defined in
    ``source``, compiled in the namespace of ``owner``'s module (plus
    ``names``), so it runs as code written in that module."""
    module = owner if isinstance(owner, types.ModuleType) else sys.modules[owner.__module__]
    tree = ast.parse(textwrap.dedent(source))
    namespace = dict(vars(module), **names)
    exec(compile(tree, module.__file__, "exec"), namespace)
    name = tree.body[0].name
    monkeypatch.setattr(owner, name, namespace[name])


# --------------------------------------------------------------------- #
# kernel contracts
# --------------------------------------------------------------------- #
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
    """Cases with a compiled plan but no oracle, or an oracle but no plan."""
    return [name for name, c in table.items()
            if (c.plan is not None) != (c.factory in ORACLES)]


#: planned functional entry point -> its interpreted twin
FUNCTIONAL_TWINS = {
    functional.spmm_functional: oracles.spmm_functional_reference,
    functional.sddmm_functional: oracles.sddmm_functional_reference,
}


def _as_method(oracle):
    """An ``_execute_simulated`` that returns ``oracle``'s output."""
    def run(self, *ops):
        return oracle(self, *ops)[0]
    return run


def _planned_classes() -> List[type]:
    return sorted({c.factory for c in KERNEL_CASES.values() if c.plan is not None},
                  key=lambda cls: cls.__name__)


def _route_to_twins(monkeypatch) -> int:
    """Send every planned path to its interpreted twin: each planned
    class's ``_execute_simulated`` and every kernel module's binding of
    a planned functional entry point.  Returns the routes patched."""
    routes = [(cls, "_execute_simulated", _as_method(ORACLES[cls]))
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
    assert _mutated_inputs(kern, operands(case)) == []


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
        monkeypatch.setitem(ORACLES, cls, _raise_twin)
    for name in oracles.__all__:
        if callable(getattr(oracles, name)) and name != "SectorCache":
            monkeypatch.setattr(oracles, name, _raise_twin)
    monkeypatch.setattr(SectorCache, "access_sectors", _raise_twin)
    for name, simulate in RUNS:
        case = KERNEL_CASES[name]
        kern = case.kernel(simulate=True) if simulate else case.kernel()
        kern.run(*operands(case))
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
    return _mutated_inputs(planted(), operands(KERNEL_CASES["spmm-octet"]))


# the precision check: one exact sum per row, which any fp16 accumulator
# gets wrong (1024 + 0.25 rounds back to 1024 in fp16)
_M, _K, _N, _V = 32, 64, 32, 4


def _dyadic_rows() -> np.ndarray:
    """``(32 x 64)`` fp16 rows, alternating per vector group between
    ``[1024, 0.25 x 8, 0..., -1024]`` (sum 2.0) and ``[1024, 0.25 x 62,
    -1024]`` (sum 15.5), whose every 4-aligned partial sum is inexact in
    fp16."""
    short = np.zeros(_K)
    short[1:9] = 0.25
    long = np.full(_K, 0.25)
    rows = np.array([short if (i // _V) % 2 == 0 else long for i in range(_M)])
    rows[:, 0], rows[:, -1] = 1024.0, -1024.0
    return rows.astype(np.float16)


def _dyadic_operands(case: KernelCase) -> tuple:
    """``case``'s operands: :func:`_dyadic_rows` as A, ones as B."""
    a, ones = _dyadic_rows(), np.ones((_K, _N), dtype=np.float16)
    rng = np.random.default_rng(0)
    if case.operand == "cvse":
        return ColumnVectorSparseMatrix.from_dense(a, _V), ones
    if case.operand == "ell":
        return BlockedEllMatrix.from_dense(a, 16), ones
    if case.operand == "mask":
        return a, ones, mask_operand(rng.random((_M // _V, _N)) < 0.4, _V)
    if case.operand == "csr" and case.factory is CusparseSddmmKernel:
        return a, ones, csr_operand((_M, _N), 0.4, rng)
    if case.operand == "csr":
        return CSRMatrix.from_dense(a), ones
    return a, ones


def _value_rows(out) -> np.ndarray:
    """The output row of each output value."""
    if isinstance(out, np.ndarray):
        return np.broadcast_to(np.arange(out.shape[0])[:, None], out.shape)
    counts = np.diff(out.row_ptr)
    rows = np.repeat(np.arange(counts.size), counts)
    if isinstance(out, ColumnVectorSparseMatrix):
        return rows[:, None] * out.vector_length + np.arange(out.vector_length)
    return rows


def _precision_mismatches() -> List[str]:
    """The SpMM/SDDMM/GEMM runs whose output on dyadic operands is not
    the exact sum, bit for bit."""
    sums = _dyadic_rows().astype(np.float64).sum(axis=1)
    bad = []
    for (name, simulate), run_id in zip(RUNS, RUN_IDS):
        case = KERNEL_CASES[name]
        if case.factory is SparseSoftmaxKernel:
            continue
        out = runset.run_case(name, simulate, _dyadic_operands(case)).output
        got = runset.output_values(out)
        if got.tobytes() != sums[_value_rows(out)].astype(got.dtype).tobytes():
            bad.append(run_id)
    return bad


def test_real_repo_is_clean():
    assert _unlisted_dispatch_classes() == []
    assert _plan_twin_mismatches(KERNEL_CASES) == []
    assert _precision_mismatches() == []


def test_dyadic_rows_defeat_an_fp16_accumulator():
    sums = _dyadic_rows().astype(np.float64).sum(axis=1)
    assert set(sums) == {2.0, 15.5}
    acc = np.zeros(_M, dtype=np.float16)
    for column in _dyadic_rows().T:
        acc += column
    assert set(acc) == {0.0}


#: planted precision defects: (owner, fp16 source, runs it breaks)
PRECISION_PLANTS = {
    "fp16-accumulator": (functional, """
        def _sddmm_gathered_dot(a32, bt32, rows, cols):
            a16, b16 = a32.astype(np.float16), bt32.astype(np.float16)
            acc = np.zeros(rows.size, dtype=np.float16)
            for j in range(a16.shape[1]):
                acc += a16[rows, j] * b16[cols, j]
            return acc.astype(np.float32)
        """, {"sddmm-octet-reg-functional", "sddmm-octet-shfl-functional",
              "sddmm-octet-arch-functional", "sddmm-wmma-functional",
              "sddmm-fpu-functional", "cusparse-sddmm-functional"}),
    "fp16-einsum": (DenseGemmKernel, """
        def _execute(self, a, b):
            a16, b16 = np.asarray(a, np.float16), np.asarray(b, np.float16)
            return np.einsum("mk,kn->mn", a16, b16)
        """, {"dense-gemm-functional"}),
    "fp16-partial-sum": (tensor_core, """
        def _dot_f32(a_rows, b_cols):
            a32 = np.asarray(a_rows, dtype=_F32)
            b32 = np.asarray(b_cols, dtype=_F32)
            out = np.multiply(a32[..., :, 0:1], b32[..., 0:1, :])
            for j in range(1, a32.shape[-1]):
                out = out + a32[..., :, j : j + 1] * b32[..., j : j + 1, :]
                out = out.astype(np.float16).astype(_F32)
            return out
        """, {run_id for run_id in RUN_IDS if run_id.endswith("-simulate")}),
}


@pytest.mark.parametrize("plant", sorted(PRECISION_PLANTS))
def test_precision_check_catches_fp16_accumulation(plant, monkeypatch):
    owner, source, broken = PRECISION_PLANTS[plant]
    _plant(monkeypatch, owner, source)
    assert set(_precision_mismatches()) == broken


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


def test_mutation_lint_allows_rebinding():
    assert _planted_mutations(_Rebinding) == []


def test_plan_twins_flags_missing_reference():
    class PlannedFpuKernel(FpuSpmmKernel):
        pass

    planted = {
        "planned-fpu": KernelCase("planned-fpu", "cvse", PlannedFpuKernel,
                                  plan=plans.spmm_octet_plan),
        "unplanned-octet": KernelCase("unplanned-octet", "cvse", OctetSpmmKernel),
    }
    assert _plan_twin_mismatches(planted) == ["planned-fpu", "unplanned-octet"]


def test_plan_twins_flags_untested_reference(monkeypatch):
    # the tier-1 parity test runs every oracle against its plan, bit for bit
    def wrong_oracle(kern, a, b):
        out, stats = oracles.spmm_octet(kern, a, b)
        return np.zeros_like(out), stats

    def failing():
        return [name for name in PLANNED if plan_oracle_mismatches(KERNEL_CASES[name], 4)]

    assert failing() == []
    monkeypatch.setitem(ORACLES, OctetSpmmKernel, wrong_oracle)
    assert failing() == ["spmm-octet"]


def test_plan_twins_ignores_helper_imports():
    # the FPU kernels execute through repro.plans' functional helpers,
    # but compile no simulated plan, so they need no twin
    fpu = {n: c for n, c in KERNEL_CASES.items() if c.factory.__name__.startswith("Fpu")}
    assert sorted(fpu) == ["sddmm-fpu", "spmm-fpu"]
    assert _plan_twin_mismatches(fpu) == []


# --------------------------------------------------------------------- #
# the traced pass of the run set, under a recording os.environ
# --------------------------------------------------------------------- #
def _reader() -> str:
    """The module that reads the environment: the innermost frame
    outside ``os`` and the mapping machinery."""
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") in ("os", "collections.abc", "_collections_abc"):
        frame = frame.f_back
    return frame.f_globals.get("__name__", "?")


class _RecordingEnviron(MutableMapping):
    """``os.environ`` that records ``(name, reading module)`` for every
    ``REPRO_*`` read; writes go through to the real environment."""

    def __init__(self, real) -> None:
        self.real = real
        self.reads: Set[Tuple[str, str]] = set()

    def __getitem__(self, name):
        if name.startswith("REPRO_"):
            self.reads.add((name, _reader()))
        return self.real[name]

    def __setitem__(self, name, value):
        self.real[name] = value

    def __delitem__(self, name):
        del self.real[name]

    def __iter__(self):
        return iter(self.real)

    def __len__(self):
        return len(self.real)

    def copy(self):
        return self.real.copy()


#: emitted-name kind -> the schema list declaring it
SCHEMA_LISTS = {"span": "SPANS", "counter": "COUNTERS", "gauge": "GAUGES",
                "histogram": "HISTOGRAMS"}


def _emitted() -> Dict[str, Set[str]]:
    """The names the tracer and the metrics registry hold, by kind."""
    return {"span": {s["name"] for s in tracing.completed_spans()},
            "counter": set(metrics.counters()), "gauge": set(metrics.gauges()),
            "histogram": set(metrics.histograms())}


@contextlib.contextmanager
def _observing(monkeypatch):
    """Record env reads and emitted obs names while the block runs
    traced; yields ``(environ, names)``.  ``obs`` resets the tracer and
    the registry before its run, so each reset first records what it
    drops."""
    env = _RecordingEnviron(os.environ)
    names: Dict[str, Set[str]] = {kind: set() for kind in SCHEMA_LISTS}

    def collect():
        for kind, found in _emitted().items():
            names[kind] |= found

    tracing.set_enabled(None)  # REPRO_TRACE decides, and is read
    tracing.reset()
    metrics.reset()
    for module in (tracing, metrics):
        monkeypatch.setattr(module, "reset", lambda reset=module.reset: (collect(), reset()))
    monkeypatch.setattr(os, "environ", env)
    try:
        with runset.environ(REPRO_TRACE="1"):
            yield env, names
        collect()
    finally:
        tracing.set_enabled(None)
        tracing.reset()
        metrics.reset()


def _rng_state_kept(before, after) -> bool:
    return (before[0] == after[0] and np.array_equal(before[1], after[1])
            and before[2:] == after[2:])


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory) -> types.SimpleNamespace:
    """One traced pass of the run set under a recording ``os.environ``:
    its digests, env reads, emitted obs names, and whether it left the
    global generator alone."""
    state = np.random.get_state()
    memo.clear()
    try:
        with pytest.MonkeyPatch.context() as mp, _observing(mp) as (env, names):
            digests = runset.run_set(tmp_path_factory.mktemp("runset"))
    finally:
        memo.clear()
    return types.SimpleNamespace(digests=digests, reads=env.reads, names=names,
                                 rng_kept=_rng_state_kept(state, np.random.get_state()))


def test_cli_exit_codes(traced_pass):
    # every command of the run set exits clean, and the crashed pool
    # worker costs only its own experiment
    codes = {step: code for step, code in traced_pass.digests.items() if step.endswith(" exit")}
    assert sorted(codes) == ["obs --smoke exit", "profile --smoke exit",
                             "serve --smoke exit"]
    assert set(codes.values()) == {str(cli.EXIT_CLEAN)}
    assert traced_pass.digests["chaos survivors"] == "table2"


# --------------------------------------------------------------------- #
# seeded RNG
# --------------------------------------------------------------------- #
#: bind a kernel that draws from an unseeded generator (run in a child)
_UNSEEDED_PLANT = """
from numpy.random import default_rng
from repro.kernels.spmm_octet import OctetSpmmKernel
_original = OctetSpmmKernel._execute
def _execute(self, a, b):
    return _original(self, a, b) + default_rng().random(1).astype("float16")
OctetSpmmKernel._execute = _execute
"""


def _fresh_digests(run: str, prelude: str = "", hash_seeds=("0", "1")) -> List[dict]:
    """The JSON that ``run`` (code printing it) prints in one fresh
    process per ``PYTHONHASHSEED``, run side by side."""
    path = os.pathsep.join([str(REPO / "src"), str(REPO)])
    code = f"{prelude}\nimport json\nfrom tests import runset\n{run}\n"
    procs = [subprocess.Popen([sys.executable, "-c", code], cwd=REPO, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
             for seed in hash_seeds]
    outs = [proc.communicate(timeout=600) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs), outs
    return [json.loads(out) for out, _err in outs]


def test_run_set_is_deterministic_across_hash_seeds(traced_pass):
    first, second = _fresh_digests("runset.main()")
    assert first == second
    # tracing and the recording environ change no output either
    assert traced_pass.digests == first


def test_run_set_leaves_the_global_generator_alone(traced_pass):
    assert traced_pass.rng_kept


def test_rng_lint_flags_unseeded_calls(monkeypatch):
    kernels = "print(json.dumps(runset.kernel_digests()))"
    first, second = _fresh_digests(kernels, prelude=_UNSEEDED_PLANT)
    assert {k for k in first if first[k] != second[k]} == {
        "spmm-octet-functional", "spmm-octet-simulate"}
    state = np.random.get_state()
    _plant(monkeypatch, OctetSpmmKernel, """
        def _execute(self, a, b):
            return _original(self, a, b) + np.random.rand(1).astype(np.float16)
        """, _original=OctetSpmmKernel._execute)
    runset.kernel_digests()
    assert not _rng_state_kept(state, np.random.get_state())


# --------------------------------------------------------------------- #
# spans inside the memo boundary
# --------------------------------------------------------------------- #
def test_span_outside_memo_flags_wrapped_builder():
    with pytest.raises(TypeError, match="memoised in the 'stats' region"):
        @tracing.traced("build.stats")
        @memo.memoised("stats")
        def build_stats(spec):
            return spec

    # the span inside the memo boundary is the sanctioned order
    @memo.memoised("latency")
    @tracing.traced("build.latency")
    def build_latency(spec):
        return spec

    assert build_latency(3) == 3 and build_latency.__memo_region__ == "latency"


def test_span_outside_memo_sees_attribute_decorators():
    with pytest.raises(TypeError, match="'trace' region"):
        @tracing.traced("build.trace")
        @memo.memoised("trace")
        def build_trace(spec):
            return spec

    with pytest.raises(TypeError, match="'stats' region"):
        tracing.traced("kernel.stats")(memo.memoised_stats(OctetSpmmKernel.stats_for))


# --------------------------------------------------------------------- #
# one registry of env gates
# --------------------------------------------------------------------- #
def _gate_findings(reads: Set[Tuple[str, str]]) -> List[str]:
    """``REPRO_*`` reads by the program outside :mod:`repro.envgates`,
    and declared gates nothing read."""
    found = [f"{name} read by {module}" for name, module in sorted(reads)
             if module.split(".")[0] == "repro" and module != "repro.envgates"]
    read = {name for name, module in reads if module == "repro.envgates"}
    found += [f"{name} is never read" for name in sorted(set(envgates.GATES) - read)]
    return found


def test_env_gates_are_read_through_the_registry(traced_pass):
    assert _gate_findings(traced_pass.reads) == []
    assert len(envgates.GATES) == 7


def test_env_gate_check_flags_direct_read(monkeypatch):
    _plant(monkeypatch, OctetSpmmKernel, """
        def _execute(self, a, b):
            if os.environ.get("REPRO_FIXTURE_DEBUG", "0") == "1":
                print("debug")
            return _original(self, a, b)
        """, _original=OctetSpmmKernel._execute, os=os)
    with _observing(monkeypatch) as (env, _names):
        runset.kernel_digests()
    assert "REPRO_FIXTURE_DEBUG read by repro.kernels.spmm_octet" in _gate_findings(env.reads)


def test_env_gate_check_flags_unread_gate(traced_pass, monkeypatch):
    monkeypatch.setitem(envgates.GATES, "REPRO_FIXTURE_UNUSED",
                        envgates.EnvGate("REPRO_FIXTURE_UNUSED", "0", "flag", "never read"))
    assert _gate_findings(traced_pass.reads) == ["REPRO_FIXTURE_UNUSED is never read"]


# --------------------------------------------------------------------- #
# the obs naming schema
# --------------------------------------------------------------------- #
def _matches(pattern: str, name: str) -> bool:
    """``*`` matches exactly one dotted segment."""
    p, n = pattern.split("."), name.split(".")
    return len(p) == len(n) and all(a in ("*", b) for a, b in zip(p, n))


def _naming_findings(names: Dict[str, Set[str]]) -> List[str]:
    """Emitted names the schema does not declare, declared names nothing
    emitted, and ``DERIVED`` entries off the schema."""
    found = []
    for kind, attr in SCHEMA_LISTS.items():
        declared = getattr(schema, attr)
        found += [f"undeclared {kind} {name}" for name in sorted(names[kind])
                  if not any(_matches(p, name) for p in declared)]
        found += [f"{kind} {p} never emitted" for p in declared
                  if not any(_matches(p, name) for name in names[kind])]
    found += [f"derived {key} reads undeclared counter {p}"
              for key, inputs in schema.DERIVED.items() for p in inputs
              if p not in schema.COUNTERS]
    if set(schema.DERIVED) != set(metrics.snapshot()["derived"]):
        found.append(f"derived keys {sorted(metrics.snapshot()['derived'])} "
                     f"!= schema {sorted(schema.DERIVED)}")
    return found


def test_obs_names_match_the_schema(traced_pass):
    assert _naming_findings(traced_pass.names) == []


def test_obs_check_flags_undeclared_counter(monkeypatch):
    _plant(monkeypatch, OctetSpmmKernel, """
        def _execute(self, a, b):
            metrics.counter_add("fixture.undeclared.count")
            return _original(self, a, b)
        """, _original=OctetSpmmKernel._execute, metrics=metrics)
    with _observing(monkeypatch) as (_env, names):
        runset.kernel_digests()
    assert "undeclared counter fixture.undeclared.count" in _naming_findings(names)


def test_obs_check_flags_orphan_schema_entry(traced_pass, monkeypatch):
    monkeypatch.setattr(schema, "COUNTERS", schema.COUNTERS + ["fixture.orphan.count"])
    assert _naming_findings(traced_pass.names) == ["counter fixture.orphan.count never emitted"]


# --------------------------------------------------------------------- #
# sound memo keys
# --------------------------------------------------------------------- #
#: the flag gates the memo-key check flips; it toggles the memo itself
#: with ``memo.set_enabled``, so ``REPRO_MEMO`` has nothing to add
FLIPPED = [g for g in envgates.GATES.values() if g.kind == "flag" and g.name != "REPRO_MEMO"]


def _memo_key_check(steps, tmp: Path) -> Tuple[Set[str], List[str]]:
    """``(regions, mismatches)``: the memo regions ``steps`` reaches
    when it fills the cache under the default gate state, and, for each
    flipped flag gate, the steps whose warm memo-on digest differs from
    a memo-off run's."""
    mismatches = []
    memo.clear()
    try:
        with runset.environ(REPRO_MEMO_SHARED_DIR=str(tmp)):
            memo.set_enabled(True)
            steps()
            regions = set(memo.counters())
            for gate in FLIPPED:
                flipped = "0" if gate.default == "1" else "1"
                with runset.environ(**{gate.name: flipped}):
                    warm = steps()
                    memo.set_enabled(False)
                    cold = steps()
                    memo.set_enabled(True)
                mismatches += [f"{gate.name}={flipped}: {step}" for step in cold
                               if warm[step] != cold[step]]
    finally:
        memo.set_enabled(None)
        memo.clear()
        tracing.reset()
        metrics.reset()
    return regions, mismatches


def test_memo_keys_cover_what_the_computes_read(traced_pass, tmp_path):
    regions, mismatches = _memo_key_check(runset.memo_steps, tmp_path)
    reached = {name.rsplit(".", 1)[1] for name in traced_pass.names["span"]
               if name.startswith("memo.miss.")}
    assert reached == {"latency", "plan", "stats", "trace"}
    assert reached <= regions
    assert mismatches == []


def test_memo_key_check_flags_a_clock_read(monkeypatch, tmp_path):
    _plant(monkeypatch, OctetSpmmKernel, """
        @memo.memoised_stats
        def stats_for(self, a, n):
            st = _original(self, a, n)
            st.notes["stamp"] = time.time()
            return st
        """, _original=OctetSpmmKernel.stats_for.__wrapped__, time=__import__("time"))
    _regions, mismatches = _memo_key_check(runset.kernel_digests, tmp_path)
    assert {m.split(": ")[1] for m in mismatches} == {
        "spmm-octet-functional", "spmm-octet-simulate"}
