"""Layer attribution from outside the program.

The benchmark never edits ``src/``.  It times each layer by replacing
the layer's public functions with wrappers that keep a stack of open
frames: a frame's *self time* is its duration minus the time of the
frames opened beneath it, so the self times of all layers plus the
time spent outside any wrapper add up to the measured wall time.

Rules that keep the attribution exclusive:

* a call into a layer whose frame is already on top of the stack
  (recursion, a subclass calling its parent) opens no new frame;
* ``absorb`` names layers that swallow a call: the transformer's
  forward pass, called from ``evaluate``, is evaluation time;
* ``memo.memoise`` runs its ``compute`` callback in a frame of the
  *calling* layer, so the memo's own time is keying, hashing,
  pickling and lookup only, never the computation it caches.

A function is patched at every binding that ``repro`` modules hold,
because callers that wrote ``from x import f`` keep their own
reference.  The runner's ``EXPERIMENTS`` entries are wrapped too, each
as layer ``experiment.<name>``.  Each wrapper counts its calls, so a binding that was
missed shows up as a wrapper that never fired on its home workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "LAYER_METRICS", "Tracer", "UNATTRIBUTED"]

#: frame layer for memo computes that no wrapped layer called; its
#: time belongs to the unattributed remainder
UNATTRIBUTED = "unattributed"

SWEEP, TABLE4, KERNELS, SERVE = "sweep-quick", "table4", "kernels", "serve-overload"


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module:qualname`` in ``layer``,
    expected to fire at least once on each of ``home``."""

    layer: str
    path: str
    home: Tuple[str, ...]
    absorb: Tuple[str, ...] = ()


def _targets(layer: str, module: str, names: str, *home: str,
             absorb: Tuple[str, ...] = ()) -> List[Target]:
    return [Target(layer, f"{module}:{n}", tuple(home), absorb) for n in names.split()]


ALL = (SWEEP, TABLE4, KERNELS, SERVE)

TARGETS: List[Target] = [
    *_targets("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.__post_init__", *ALL),
    *_targets("formats", "repro.formats.cvse",
              "ColumnVectorSparseMatrix.from_dense ColumnVectorSparseMatrix.mask_from_dense",
              SWEEP, TABLE4),
    *_targets("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.with_values",
              SWEEP, TABLE4, KERNELS),
    *_targets("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.from_topology",
              SWEEP, SERVE),
    *_targets("formats", "repro.formats.blocked_ell",
              "BlockedEllMatrix.__post_init__ BlockedEllMatrix.random", SWEEP),
    *_targets("formats", "repro.formats.blocked_ell", "BlockedEllMatrix.to_dense", KERNELS),
    *_targets("formats", "repro.formats.csr", "CSRMatrix.__post_init__", SWEEP, KERNELS, SERVE),
    *_targets("formats", "repro.formats.csr", "CSRMatrix.from_dense", SWEEP, SERVE),
    *_targets("formats", "repro.formats.csr", "CSRMatrix.to_scipy", KERNELS),
    *_targets("formats", "repro.formats.conversions", "cvse_from_csr_topology", SWEEP, SERVE),
    *_targets("formats", "repro.formats.conversions", "blocked_ell_matching", SWEEP),
    *_targets("datasets", "repro.datasets.dlmc", "generate_topology", SWEEP, SERVE),
    *_targets("datasets", "repro.datasets.dlmc", "dlmc_suite", SWEEP),
    *_targets("datasets", "repro.datasets.benchmark_suite",
              "build_spmm_problem build_sddmm_problem", SWEEP),
    *_targets("kernels.stats", "repro.kernels.spmm_octet", "OctetSpmmKernel.stats_for", *ALL),
    # serving prices the FPU variant only after a seed-dependent fallback
    *_targets("kernels.stats", "repro.kernels.spmm_fpu", "FpuSpmmKernel.stats_for",
              SWEEP, KERNELS),
    *_targets("kernels.stats", "repro.kernels.spmm_wmma", "WmmaSpmmKernel.stats_for", KERNELS),
    *_targets("kernels.stats", "repro.kernels.sddmm_octet", "OctetSddmmKernel.stats_for",
              SWEEP, TABLE4, KERNELS),
    *_targets("kernels.stats", "repro.kernels.softmax_sparse", "SparseSoftmaxKernel.stats_for",
              SWEEP, TABLE4, KERNELS),
    *_targets("kernels.stats", "repro.kernels.gemm", "DenseGemmKernel.stats_for_shape",
              SWEEP, TABLE4, KERNELS),
    *_targets("kernels.stats", "repro.kernels.sddmm_wmma", "WmmaSddmmKernel.stats_for",
              SWEEP, KERNELS),
    *_targets("kernels.stats", "repro.kernels.sddmm_fpu", "FpuSddmmKernel.stats_for",
              SWEEP, KERNELS),
    *_targets("kernels.stats", "repro.kernels.cusparse",
              "BlockedEllSpmmKernel.stats_for CusparseCsrSpmmKernel.stats_for "
              "CusparseSddmmKernel.stats_for", SWEEP, KERNELS),
    *_targets("kernels.run", "repro.kernels.base", "Kernel.run", TABLE4, KERNELS),
    *_targets("plans.compile", "repro.plans.spmm", "spmm_octet_plan spmm_wmma_plan", KERNELS),
    *_targets("plans.compile", "repro.plans.sddmm", "sddmm_octet_plan sddmm_wmma_plan", KERNELS),
    *_targets("plans.compile", "repro.plans.functional",
              "functional_spmm_plan functional_sddmm_plan", TABLE4, KERNELS),
    *_targets("plans.execute", "repro.plans.spmm", "execute_spmm_octet execute_spmm_wmma",
              KERNELS),
    *_targets("plans.execute", "repro.plans.sddmm", "execute_sddmm_octet execute_sddmm_wmma",
              KERNELS),
    *_targets("latency", "repro.perfmodel.latency", "LatencyModel.estimate", *ALL),
    *_targets("memo", "repro.perfmodel.memo",
              "memoise signature kernel_fingerprint stats_signature", *ALL),
    *_targets("trace", "repro.perfmodel.trace",
              "trace_octet_spmm trace_blocked_ell trace_octet_sddmm trace_wmma_sddmm "
              "trace_gemm", KERNELS),
    *_targets("transformer.forward", "repro.transformer.model",
              "TransformerClassifier.forward", TABLE4, absorb=("transformer.eval",)),
    *_targets("transformer.backward", "repro.transformer.model",
              "TransformerClassifier.loss_and_grads", TABLE4),
    *_targets("transformer.optimizer", "repro.transformer.training", "train", TABLE4),
    *_targets("transformer.eval", "repro.transformer.training", "evaluate", TABLE4),
    *_targets("serving.cost", "repro.serving.costmodel",
              "ServingCostModel.__init__ ServingCostModel.cost ServingCostModel.service_us "
              "ServingCostModel.capacity_tokens_per_us", SERVE),
    *_targets("serving.workload", "repro.serving.workload", "generate_workload", SERVE),
    *_targets("serving.loop", "repro.serving.simulator", "simulate", SERVE),
    *_targets("experiments.other", "repro.experiments.runner", "run_all", SWEEP, TABLE4),
    *_targets("experiments.other", "repro.experiments.claims", "verify", SWEEP, TABLE4),
]

#: layer -> (self-time metric, call-count metric or None)
LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "formats": ("formats.self_s", "formats.calls"),
    "datasets": ("datasets.self_s", "datasets.calls"),
    "kernels.stats": ("kernels.stats_s", "kernels.stats_calls"),
    "kernels.run": ("kernels.run_s", "kernels.run_calls"),
    "plans.compile": ("plans.compile_s", "plans.compile_calls"),
    "plans.execute": ("plans.execute_s", None),
    "latency": ("latency.estimate_s", "latency.calls"),
    "memo": ("memo.self_s", None),
    "trace": ("trace.replay_s", "trace.calls"),
    "transformer.forward": ("transformer.forward_s", None),
    "transformer.backward": ("transformer.backward_s", "transformer.steps"),
    "transformer.optimizer": ("transformer.optimizer_s", None),
    "transformer.eval": ("transformer.eval_s", None),
    "serving.cost": ("serving.cost_s", None),
    "serving.workload": ("serving.workload_s", None),
    "serving.loop": ("serving.loop_s", None),
    "experiments.other": ("experiments.other_s", None),
}


def _resolve(path: str) -> Tuple[object, str, object]:
    """``module:Qual.name`` -> (owner, attribute, raw attribute value)."""
    module, qualname = path.split(":")
    owner: object = importlib.import_module(module)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """Exclusive-time accounting over wrapped layer functions."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # [layer, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.fired: Dict[str, int] = {}
        self.home: Dict[str, Tuple[str, ...]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------------- #
    def _frame(self, layer: str, fn: Callable, args, kwargs, count: bool):
        stack = self.stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dur - frame[1]
            if count:
                self.calls[layer] += 1
            if stack:
                stack[-1][1] += dur

    def wrap(self, layer: str, name: str, fn: Callable, absorb: Tuple[str, ...] = ()):
        """A timing wrapper for ``fn`` that charges its self time to ``layer``."""
        skip = frozenset((layer,) + tuple(absorb))
        fired = self.fired
        fired.setdefault(name, 0)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[name] += 1
            if stack and stack[-1][0] in skip:
                return fn(*args, **kwargs)
            return self._frame(layer, fn, args, kwargs, True)

        return wrapper

    def _wrap_memoise(self, name: str, fn: Callable):
        stack = self.stack

        def charge_caller(region, key, compute, copy_result=True):
            caller = stack[-2][0] if len(stack) > 1 else UNATTRIBUTED
            return fn(region, key,
                      lambda: self._frame(caller, compute, (), {}, False), copy_result)

        return self.wrap("memo", name, functools.wraps(fn)(charge_caller))

    # ----------------------------------------------------------------- #
    def _set(self, owner, key: str, new) -> None:
        """Replace ``owner.key`` (``owner[key]`` for a dict), remembering the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def _rebind(self, old, new) -> None:
        """Point every binding of ``old`` in a ``repro`` module at ``new``."""
        for modname, mod in sorted(sys.modules.items()):
            if modname == "repro" or modname.startswith("repro."):
                for key, val in list(vars(mod).items()):
                    if val is old:
                        self._set(mod, key, new)

    def install(self) -> None:
        """Wrap every target at every binding ``repro`` modules hold."""
        for t in TARGETS:
            owner, attr, raw = _resolve(t.path)
            name = t.path.split(":")[1]
            self.home[name] = t.home
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(self.wrap(t.layer, name, raw.__func__, t.absorb)))
            elif isinstance(owner, type):
                self._set(owner, attr, self.wrap(t.layer, name, raw, t.absorb))
            elif name == "memoise":
                self._rebind(raw, self._wrap_memoise(name, raw))
            else:
                self._rebind(raw, self.wrap(t.layer, name, raw, t.absorb))
        from repro.experiments.runner import EXPERIMENTS

        for exp, fn in list(EXPERIMENTS.items()):
            name = f"experiment.{exp}"
            self.home[name] = (TABLE4,) if exp == "table4" else (SWEEP,)
            wrapped = self.wrap(name, name, fn)
            self._rebind(fn, wrapped)
            self._set(EXPERIMENTS, exp, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def unfired(self, workload: str) -> List[str]:
        """Wrappers whose home includes ``workload`` but that never ran."""
        return sorted(n for n, home in self.home.items()
                      if workload in home and not self.fired.get(n))
