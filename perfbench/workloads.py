"""The benchmark's four workloads.

Each workload is a class with the same three steps:

* ``setup(seed, passes)`` imports what it needs, builds its inputs
  from the seed (one independent copy per pass) and warms up; it is
  what ``setup_s`` times, from interpreter start;
* ``run_pass(i, tick)`` is one measured pass; the worker clears the
  memo before each one, so every pass starts cold as a user's process
  does.  The pass calls ``tick()`` between its units of work (an
  experiment, a kernel problem, a serving seed), where the worker may
  pause the clock to probe the host's speed;
* ``check(outputs)`` verifies every pass's outputs and returns the
  operation counts, a digest of the results and exact side metrics.

The sweep and table4 run the paper's experiments, whose seeds are
fixed in the program, so ``--seed`` does not change them: any seed
reproduces ``repro-experiments`` exactly.  The kernels and serving
workloads draw every input from ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["WORKLOADS", "Check"]


@dataclass
class Check:
    attempted: int
    failed: int
    errors: List[str]
    digest: str
    #: exact per-layer side metrics (counts from the outputs)
    extra: Dict[str, float]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# --------------------------------------------------------------------- #
# sweep-quick and table4: the paper's experiment runner
# --------------------------------------------------------------------- #
class _Experiments:
    names: Optional[List[str]] = None

    def setup(self, seed: int, passes: int) -> None:
        from repro.experiments import claims, runner

        self.runner, self.claims = runner, claims
        self.selected = self.names or [n for n in runner.EXPERIMENTS if n != "table4"]

    def run_pass(self, i: int, tick):
        # one run_all call per experiment, in registry order and on one
        # memo, so that the worker can probe the host between them
        results, failures = {}, []
        with contextlib.redirect_stdout(io.StringIO()):
            for name in self.selected:
                try:
                    results.update(self.runner.run_all(quick=True, only=[name], jobs=1))
                except self.runner.SweepFailure as exc:
                    results.update(exc.results)
                    failures += [n for n, _ in exc.failures]
                tick()
        return results, failures, self.claims.verify(results)

    def check(self, outputs) -> Check:
        errors: List[str] = []
        digests = []
        for results, failures, verdicts in outputs:
            errors += [f"experiment {name} failed" for name in failures]
            errors += [f"experiment {name} missing" for name in self.selected
                       if name not in results and name not in failures]
            errors += [f"claim {v.claim_id} failed: {v.measured}" for v in verdicts
                       if v.verdict == "failed"]
            digests.append(_digest({
                "results": {n: {"rows": r.rows, "notes": r.notes} for n, r in results.items()},
                "verdicts": [v.as_row() for v in verdicts],
            }))
        if len(set(digests)) > 1:
            errors.append("passes disagree on the experiment outputs")
        results, _, verdicts = outputs[0]
        extra = {"claims.reproduced": float(sum(v.verdict == "reproduced" for v in verdicts))}
        if "table4" in results:
            errors += self._table4_notes_errors(results["table4"].notes)
        failed = sum(len(set(failures)) for _, failures, _ in outputs)
        return Check(len(self.selected) * len(outputs), failed, errors, digests[0], extra)

    @staticmethod
    def _table4_notes_errors(notes) -> List[str]:
        """table4's printed ratios must be the ones ``paper_log_err`` uses."""
        import paper

        try:
            noted = paper.ratios_from_notes(notes)
        except ValueError as exc:
            return [str(exc)]
        model = paper.printed(paper.table4_ratios())
        return [f"table4 prints {k} = {noted[k]}, the public model gives {model[k]}"
                for k in noted if noted[k] != model[k]]


class SweepQuick(_Experiments):
    why = ("the quick sweep over the 12 experiments other than table4: formats, datasets, "
           "kernel stats, latency and memo hashing; the memo mostly misses")


class Table4(_Experiments):
    why = ("table4 alone, 52% of the sweep: NumPy transformer training and evaluation, "
           "which the analytic fast paths never touch; the memo mostly hits")
    names = ["table4"]


# --------------------------------------------------------------------- #
# kernels: every registered kernel on attention-shaped problems
# --------------------------------------------------------------------- #
SEQ, V, DENSITY, ELL_BLOCK = 1024, 8, 0.1, 16

#: (head dim, index of the earlier problem whose topology is reused
#: with new values, or None for a fresh topology) -- the fig20 pair
PATTERN: Tuple[Tuple[int, Optional[int]], ...] = (
    (64, None), (256, None), (64, 0), (64, None),
)

#: registered kernel name -> (operand kind, repro.kernels class, constructor kwargs)
KERNEL_CASES = {
    "spmm-octet": ("spmm", "spmm_octet.OctetSpmmKernel", {"simulate": True}),
    "spmm-wmma": ("spmm", "spmm_wmma.WmmaSpmmKernel", {"simulate": True}),
    "spmm-fpu": ("spmm", "spmm_fpu.FpuSpmmKernel", {}),
    "spmm-blocked-ell": ("ell", "cusparse.BlockedEllSpmmKernel", {}),
    "dense-gemm": ("gemm", "gemm.DenseGemmKernel", {}),
    "sddmm-octet-reg": ("sddmm", "sddmm_octet.OctetSddmmKernel",
                        {"variant": "reg", "simulate": True}),
    "sddmm-octet-shfl": ("sddmm", "sddmm_octet.OctetSddmmKernel",
                         {"variant": "shfl", "simulate": True}),
    "sddmm-octet-arch": ("sddmm", "sddmm_octet.OctetSddmmKernel",
                         {"variant": "arch", "simulate": True}),
    "sddmm-wmma": ("sddmm", "sddmm_wmma.WmmaSddmmKernel", {"simulate": True}),
    "sddmm-fpu": ("sddmm", "sddmm_fpu.FpuSddmmKernel", {}),
    "softmax": ("softmax", "softmax_sparse.SparseSoftmaxKernel", {}),
    "cusparse-csr-spmm": ("csr-spmm", "cusparse.CusparseCsrSpmmKernel", {}),
    "cusparse-sddmm": ("csr-sddmm", "cusparse.CusparseSddmmKernel", {}),
}

#: sector-trace replays: trace function -> operand kind
TRACES = ("trace_octet_spmm", "trace_blocked_ell", "trace_octet_sddmm",
          "trace_wmma_sddmm", "trace_gemm")

#: fp16 tolerance against dense fp32: |out - ref| <= TOL * max|ref|
#: (fp16 keeps 11 significant bits; 2**-9 leaves room for fp32
#: accumulation order and the final fp16 rounding)
TOL = 2.0 ** -9


@dataclass
class _Problem:
    head: int
    dense: np.ndarray        # (SEQ, SEQ) fp16 attention weights on the topology
    b: np.ndarray            # (SEQ, head) fp16
    q: np.ndarray            # (SEQ, head) fp16
    kt: np.ndarray           # (head, SEQ) fp16
    keep: np.ndarray         # (SEQ/V, SEQ) vector topology
    a: object = None         # CVSE with values
    mask: object = None      # CVSE topology
    ell: object = None
    csr: object = None
    csr_mask: object = None


def problem_stream(seed: int, seq: int = SEQ, pattern=PATTERN) -> List[_Problem]:
    """The seeded problems of one pass, every format object built."""
    from repro.formats.blocked_ell import BlockedEllMatrix
    from repro.formats.csr import CSRMatrix
    from repro.formats.cvse import ColumnVectorSparseMatrix

    rows = seq // V
    out: List[_Problem] = []
    for i, (head, source) in enumerate(pattern):
        rng = np.random.default_rng([seed, i])
        keep = out[source].keep if source is not None else rng.random((rows, seq)) < DENSITY
        dense = (rng.uniform(-1, 1, (rows, V, seq)) * keep[:, None, :]).reshape(seq, seq)
        dense = dense.astype(np.float16)
        p = _Problem(head, dense,
                     *(rng.uniform(-1, 1, s).astype(np.float16)
                       for s in ((seq, head), (seq, head), (head, seq))), keep)
        p.a = ColumnVectorSparseMatrix.from_dense(dense, V)
        mask_dense = np.repeat(keep, V, axis=0)
        p.mask = ColumnVectorSparseMatrix.mask_from_dense(mask_dense, V)
        if source is None:
            p.ell = BlockedEllMatrix.random((seq, seq), ELL_BLOCK, sparsity=1.0 - DENSITY,
                                            rng=rng)
        else:
            src = out[source].ell
            p.ell = BlockedEllMatrix(src.shape, ELL_BLOCK, src.col_blocks,
                                     rng.uniform(-1, 1, src.values.shape).astype(np.float16))
        p.csr = CSRMatrix.from_dense(dense)
        p.csr_mask = CSRMatrix.from_dense(mask_dense.astype(np.float16))
        out.append(p)
    return out


def _kernel(path: str, kwargs: dict):
    module, cls = path.split(".")
    return getattr(importlib.import_module(f"repro.kernels.{module}"), cls)(**kwargs)


class Kernels:
    why = ("every registered kernel through Kernel.run on fig20-shaped problems, some reusing "
           "a topology: plans, tensor-core numerics and trace replay")

    def setup(self, seed: int, passes: int) -> None:
        from repro.perfmodel import memo, trace

        self.trace = trace
        self.kernels = {name: (kind, _kernel(path, kw))
                        for name, (kind, path, kw) in KERNEL_CASES.items()}
        self.passes = [problem_stream(seed) for _ in range(passes)]
        # warm-up on a small problem, then forget what it cached
        for prob in problem_stream(seed, 128, ((64, None),)):
            self._run_problem(prob)
        memo.clear()

    def _run_problem(self, p: _Problem) -> Dict[str, object]:
        args = {
            "spmm": (p.a, p.b), "ell": (p.ell, p.b), "gemm": (p.dense, p.b),
            "sddmm": (p.q, p.kt, p.mask), "softmax": (p.a,),
            "csr-spmm": (p.csr, p.b), "csr-sddmm": (p.q, p.kt, p.csr_mask),
        }
        res: Dict[str, object] = {}
        for name, (kind, kern) in self.kernels.items():
            r = kern.run(*args[kind])
            res[name] = (r.output, r.time_us)
        t = self.trace
        seq = p.dense.shape[0]
        replays = (t.trace_octet_spmm(p.a, p.head), t.trace_blocked_ell(p.ell, p.head),
                   t.trace_octet_sddmm(p.mask, p.head), t.trace_wmma_sddmm(p.mask, p.head),
                   t.trace_gemm(seq, p.head, seq))
        for name, tr in zip(TRACES, replays):
            res[name] = (tr.l1_hit_rate, tr.bytes_l2_to_l1, tr.bytes_dram_to_l2)
        return res

    def run_pass(self, i: int, tick):
        out = []
        for p in self.passes[i]:
            out.append(self._run_problem(p))
            tick()
        return out

    @staticmethod
    def _references(p: _Problem) -> Dict[str, np.ndarray]:
        d32 = p.dense.astype(np.float32)
        spmm = d32 @ p.b.astype(np.float32)
        mask = np.repeat(p.keep, V, axis=0)
        sddmm = np.where(mask, p.q.astype(np.float32) @ p.kt.astype(np.float32), 0.0)
        scores = np.where(mask, d32, -np.inf)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        with np.errstate(invalid="ignore"):
            softmax = np.nan_to_num(ex / ex.sum(axis=1, keepdims=True))
        return {"spmm": spmm, "gemm": spmm, "csr-spmm": spmm,
                "ell": p.ell.to_dense(np.float32) @ p.b.astype(np.float32),
                "sddmm": sddmm, "csr-sddmm": sddmm, "softmax": softmax}

    def check(self, outputs) -> Check:
        errors: List[str] = []
        attempted = failed = 0
        digests = []
        refs = [self._references(p) for p in self.passes[0]]
        for pass_out in outputs:
            h = hashlib.blake2b(digest_size=16)
            for i, (res, ref) in enumerate(zip(pass_out, refs)):
                for name, (kind, _) in self.kernels.items():
                    out, time_us = res[name]
                    sparse = not isinstance(out, np.ndarray)
                    got = out.to_dense(np.float32) if sparse else out.astype(np.float32)
                    want = ref[kind]
                    err = float(np.abs(got - want).max())
                    attempted += 1
                    if not err <= TOL * float(np.abs(want).max()):
                        failed += 1
                        errors.append(f"problem {i} {name}: max error {err:.3g}")
                    h.update(np.ascontiguousarray(out.values if sparse else out).tobytes())
                    h.update(repr(time_us).encode())
                for name in TRACES:
                    h.update(repr(res[name]).encode())
            digests.append(h.hexdigest())
        if len(set(digests)) > 1:
            errors.append("passes on identical inputs gave different results")
        return Check(attempted, failed, errors, digests[0], {})


# --------------------------------------------------------------------- #
# serve-overload: the serving simulator at 2.2x capacity
# --------------------------------------------------------------------- #
REQUESTS = 8000          # cli serve's default request count
SEEDS_PER_PASS = 6


class ServeOverload:
    why = ("serving.simulate on the overload scenario (cli serve --smoke) over 6 seeds: event "
           "loop and cost model; the control that kernel and format changes must not move")

    def setup(self, seed: int, passes: int) -> None:
        import repro.serving
        from repro.perfmodel import memo

        # looked up at call time, so the traced run sees its wrapper
        self.serving = repro.serving
        self.scenario = repro.serving.get_scenario("overload")
        # seed 0 gives cli serve --smoke's seed 0 first
        self.seeds = [seed * SEEDS_PER_PASS + j for j in range(SEEDS_PER_PASS)]
        self.serving.simulate(self.scenario, 256, 10**9 + seed)  # warm-up, then forget it
        memo.clear()

    def _summary(self, s: int):
        r = self.serving.simulate(self.scenario, REQUESTS, s)
        return {"seed": s, "outcomes": r.outcome_counts(), "digest": r.ledger_digest(),
                "counters": r.counters, "n": r.n_requests}

    def run_pass(self, i: int, tick):
        out = []
        for s in self.seeds:
            out.append(self._summary(s))
            tick()
        return out

    def check(self, outputs) -> Check:
        errors: List[str] = []
        # every pass simulates the same seeds, so a pass is a same-seed
        # rerun of pass 0; a one-pass run reruns the first seed here
        rerun = outputs[1:] or [[self._summary(self.seeds[0])]]
        for again in rerun:
            for first, run in zip(outputs[0], again):
                if first["digest"] != run["digest"]:
                    errors.append(f"seed {first['seed']}: same-seed rerun changed the "
                                  "ledger digest")
        attempted = failed = 0
        for runs in outputs:
            for run in runs:
                oc = run["outcomes"]
                attempted += run["n"]
                # shed and expired are the overload policy's typed outcomes;
                # a request left pending, failed or served corrupt is not
                failed += oc["pending"] + oc["failed"] + oc["corrupt-served"]
                if sum(oc.values()) != run["n"]:
                    errors.append(f"seed {run['seed']}: {sum(oc.values())}/{run['n']} "
                                  "outcomes typed")
                if oc["pending"] or oc["corrupt-served"]:
                    errors.append(f"seed {run['seed']}: {oc['pending']} pending, "
                                  f"{oc['corrupt-served']} corrupt-served")
        c = [r["counters"] for r in outputs[0]]
        extra = {
            "serving.batches": sum(x["batches"] for x in c),
            "serving.completed": sum(x["completed"] for x in c),
            "serving.shed": sum(x["shed_admission"] + x["shed_queue"] for x in c),
            "serving.retries": sum(x["retries"] for x in c),
            "serving.hedges": sum(x["hedges"] for x in c),
        }
        digest = _digest([(r["seed"], r["digest"]) for r in outputs[0]])
        return Check(attempted, failed, errors, digest, extra)


WORKLOADS = {
    "sweep-quick": SweepQuick,
    "table4": Table4,
    "kernels": Kernels,
    "serve-overload": ServeOverload,
}
