"""The run set that the contract checks of ``test_lint_contracts.py`` share.

One pass runs every :data:`~repro.kernels.cases.KERNEL_CASES` row (the
functional path, and ``simulate=True`` where the class offers it) through
its public entry point, the ``serve``/``profile`` smoke commands, one
quick experiment (``table2``), the experiment pool's failure paths as
CI's chaos job drives them (a raising experiment, a crashing worker),
and last ``obs --smoke`` (a traced ``table1``) on a
cold local memo, so the shared tier serves it.

The shared memo tier is on for the whole pass, backed by a directory
under the caller's ``tmp``.  :func:`run_set` returns one digest per step
of its deterministic output (timings and temporary paths left out).  Run
as a module, it prints the digests of one pass as JSON, which is how the
seeded-RNG check compares two fresh processes::

    PYTHONPATH=src:. python -m tests.runset
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import cli
from repro.experiments.runner import SweepFailure, run_all
from repro.kernels import dispatch
from repro.kernels.base import KernelResult
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
from repro.perfmodel import memo

#: (case name, simulate): every case, plus ``simulate=True`` where offered
RUNS = [(name, simulate) for name, case in KERNEL_CASES.items()
        for simulate in (False, True)
        if not simulate or "simulate" in inspect.signature(case.factory).parameters]
RUN_IDS = [f"{name}-{'simulate' if simulate else 'functional'}" for name, simulate in RUNS]

#: kernel class -> the public entry point (``repro.kernels.spmm`` and the
#: rest) that builds and runs it
ENTRIES: Dict[type, Callable] = {
    **{cls: functools.partial(dispatch.spmm, kernel=key)
       for key, cls in dispatch.SPMM_KERNELS.items()},
    **{cls: functools.partial(dispatch.sddmm, kernel=key)
       for key, cls in dispatch.SDDMM_KERNELS.items()},
    DenseGemmKernel: dispatch.dense_gemm,
    SparseSoftmaxKernel: dispatch.sparse_softmax,
}


def operands(case: KernelCase) -> tuple:
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


def run_case(name: str, simulate: bool, ops: tuple) -> KernelResult:
    """Run case ``name`` on ``ops`` through its public entry point, or
    through ``Kernel.run`` for the classes no entry point builds."""
    case = KERNEL_CASES[name]
    extra = {"simulate": True} if simulate else {}
    entry = ENTRIES.get(case.factory)
    if entry is None:
        return case.kernel(**extra).run(*ops)
    return entry(*ops, **case.kwargs, **extra)


def output_values(out) -> np.ndarray:
    """A kernel's output array: dense, or a sparse format's values."""
    return out if isinstance(out, np.ndarray) else out.values


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def kernel_digests() -> Dict[str, str]:
    """``{run id: digest}`` of every case run: output bytes, stats, latency."""
    out = {}
    for (name, simulate), run_id in zip(RUNS, RUN_IDS):
        res = run_case(name, simulate, operands(KERNEL_CASES[name]))
        out[run_id] = _digest(np.ascontiguousarray(output_values(res.output)).tobytes(),
                              repr(memo.stats_signature(res.stats)).encode(),
                              repr(res.latency).encode())
    return out


@contextlib.contextmanager
def environ(**values: str) -> Iterator[None]:
    """Set environment variables for the block, then restore them."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


def _cli(argv: List[str], tmp: Optional[Path] = None) -> Tuple[int, str]:
    """``(exit code, digest of stdout)`` of one command; ``tmp`` is
    blanked out of the output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    text = out.getvalue()
    if tmp is not None:
        text = text.replace(str(tmp), "<tmp>")
    return rc, _digest(str(rc).encode(), text.encode())


def sweep(only: List[str], **kwargs) -> Dict[str, str]:
    """``{experiment: artifact text}`` of a quick sweep, kept through a
    degraded one."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            results = run_all(quick=True, only=only, **kwargs)
        except SweepFailure as exc:
            results = exc.results
    return {name: res.to_text() for name, res in results.items()}


def memo_steps() -> Dict[str, str]:
    """``{step: digest}`` of the steps that reach the memo: the case
    runs, ``serve --smoke``, the profiler's trace replays and
    ``table2``."""
    digests = kernel_digests()
    for argv in (["serve", "--smoke"], ["profile", "--smoke"]):
        digests[" ".join(argv[:2])] = _cli(argv)[1]
    digests["table2"] = _digest(sweep(["table2"])["table2"].encode())
    return digests


def run_set(tmp: Path) -> Dict[str, str]:
    """One pass of the run set: ``{step: digest}``, plus ``{"<command>
    exit": code}`` for each command."""
    digests: Dict[str, str] = {}
    with environ(REPRO_MEMO_SHARED="1", REPRO_MEMO_SHARED_DIR=str(tmp / "memo")):
        digests.update(kernel_digests())
        commands = [
            ["serve", "--smoke", "--trace-out", str(tmp / "serve.json")],
            ["profile", "--smoke", "--check"],
        ]
        for argv in commands:
            step = " ".join(argv[:2])
            rc, digests[step] = _cli(argv, tmp)
            digests[f"{step} exit"] = str(rc)
        digests["table2"] = _digest(sweep(["table2"])["table2"].encode())
        # the pool's failure paths: a task raises, a pool worker crashes
        with environ(REPRO_CHAOS="raise:table1"):
            sweep(["table1"])
        with environ(REPRO_CHAOS="crash:table1"):
            survived = sweep(["table1", "table2"], jobs=2)
        digests["chaos survivors"] = ",".join(sorted(survived))
        # last, on a cold local memo, so the shared tier serves it
        memo.clear()
        rc, _ = _cli(["obs", "--smoke"])
        digests["obs --smoke exit"] = str(rc)
    return digests


def main() -> int:
    """Print the digests of one pass of the run set as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_set(Path(tmp)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
