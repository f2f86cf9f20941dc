"""precision-flow: fp16 operands, fp32 accumulation, sanctioned casts only.

The paper's tensor-core contract (HMMA ``...F32.F32``): operands may be
half precision, but every accumulation runs in fp32 and the result is
down-cast to fp16 only at output materialisation.  This pass abstractly
interprets NumPy dtypes through ``src/repro/kernels/``, ``src/repro/plans/``
and ``src/repro/hardware/tensor_core.py`` and reports three violations:

* ``f16-matmul`` — a matrix product (``@`` / ``np.dot`` / ``np.matmul`` /
  ``np.einsum``) whose operands are both known-fp16: the accumulation
  would run in half precision;
* ``f16-accumulator`` — a loop-carried ``+=``/``-=`` into a binding whose
  initialiser is known-fp16: reduced-precision accumulation;
* ``downcast-reenters-arith`` — an ``astype(float16)`` (or
  ``np.float16(...)``) of a known-fp32/fp64 value whose result feeds back
  into arithmetic instead of being returned/stored: a silent mid-pipeline
  down-cast.

The lattice is {F16, F32, F64, UNKNOWN}; inference covers dtype-literal
constructors (``np.zeros(..., dtype=...)``), ``astype``, module-level
aliases (``_F16 = np.float16``), dtype-preserving ops (transpose, reshape,
subscripts, ``copy``), binop promotion, and one level of interprocedural
return-dtype summaries for same-repo calls.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    AnalysisContext,
    FileInfo,
    Finding,
    FunctionInfo,
    dotted_call_name,
    rule,
)

F16, F32, F64, UNKNOWN = "float16", "float32", "float64", "unknown"

_SCOPE = ("src/repro/kernels", "src/repro/plans", "src/repro/hardware/tensor_core.py")

_DTYPE_ATTRS = {"float16": F16, "half": F16, "float32": F32,
                "single": F32, "float64": F64, "double": F64}
_NP_NAMES = {"np", "numpy"}
_ZERO_CTORS = {"zeros", "ones", "empty", "full"}
_LIKE_CTORS = {"zeros_like", "ones_like", "empty_like", "full_like"}
_PRESERVING_METHODS = {"copy", "reshape", "transpose", "ravel", "flatten",
                       "squeeze", "conj", "clip", "round", "repeat", "take"}
_MATMUL_FUNCS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _dtype_aliases(info: FileInfo) -> Dict[str, str]:
    """Module-level ``_F16 = np.float16`` style dtype aliases."""

    aliases: Dict[str, str] = {}
    for node in info.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        tag = _dtype_of_literal(node.value, {})
        if tag is not None:
            aliases[target.id] = tag
    return aliases


def _dtype_of_literal(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """F16/F32/F64 when ``node`` denotes a dtype, else None."""

    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in _NP_NAMES:
            return _DTYPE_ATTRS.get(node.attr)
        return None
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_ATTRS.get(node.value)
    return None


def _promote(a: str, b: str) -> str:
    order = {F16: 0, F32: 1, F64: 2}
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return a if order[a] >= order[b] else b


class _FunctionTyper:
    """One forward abstract-interpretation pass over a function body."""

    def __init__(
        self,
        ctx: AnalysisContext,
        fn: FunctionInfo,
        aliases: Dict[str, str],
        return_summaries: Dict[str, str],
    ):
        self.ctx = ctx
        self.fn = fn
        self.aliases = aliases
        self.return_summaries = return_summaries
        self.env: Dict[str, str] = {}
        # var name -> downcast line, for downcast-reenters-arith
        self.tainted: Dict[str, int] = {}
        self.reported_taint: Set[str] = set()
        self.findings: List[Tuple[int, str]] = []
        self.loop_depth = 0
        self.return_dtypes: List[str] = []

    # -- expression typing --------------------------------------------------

    def type_of(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Subscript):
            return self.type_of(node.value)
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                return self.type_of(node.value)
            return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.type_of(node.operand)
        if isinstance(node, ast.BinOp):
            return self._type_binop(node)
        if isinstance(node, ast.IfExp):
            return _promote(self.type_of(node.body), self.type_of(node.orelse))
        if isinstance(node, ast.Call):
            return self._type_call(node)
        return UNKNOWN

    def _type_binop(self, node: ast.BinOp) -> str:
        left, right = self.type_of(node.left), self.type_of(node.right)
        if isinstance(node.op, ast.MatMult) and left == F16 and right == F16:
            self.findings.append(
                (node.lineno,
                 "matrix product with two known-fp16 operands — the "
                 "accumulation runs in half precision; up-cast the operands "
                 "or accumulate in fp32")
            )
        if left == UNKNOWN and right == UNKNOWN:
            return UNKNOWN
        if left == UNKNOWN:
            return right
        if right == UNKNOWN:
            return left
        return _promote(left, right)

    def _kw(self, node: ast.Call, name: str) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _type_call(self, node: ast.Call) -> str:
        func = node.func
        dotted = dotted_call_name(func)
        head = dotted.split(".", 1)[0] if dotted else ""
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""

        # dtype constructors: np.float16(x) and alias calls
        tag = _dtype_of_literal(func, self.aliases)
        if tag is not None:
            if tag == F16 and node.args:
                self._note_downcast(node, self.type_of(node.args[0]))
            return tag

        if isinstance(func, ast.Attribute):
            recv = func.value
            if func.attr == "astype" and node.args:
                target = _dtype_of_literal(node.args[0], self.aliases)
                if target is not None:
                    if target == F16:
                        self._note_downcast(node, self.type_of(recv))
                    return target
                return UNKNOWN
            if func.attr in _PRESERVING_METHODS:
                return self.type_of(recv)
            if head in _NP_NAMES:
                if tail in _ZERO_CTORS:
                    dt = self._kw(node, "dtype")
                    if dt is None and tail == "full" and len(node.args) >= 3:
                        dt = node.args[2]
                    elif dt is None and tail != "full" and len(node.args) >= 2:
                        dt = node.args[1]
                    tag = _dtype_of_literal(dt, self.aliases) if dt is not None else None
                    return tag if tag is not None else F64
                if tail in _LIKE_CTORS:
                    dt = self._kw(node, "dtype")
                    if dt is not None:
                        tag = _dtype_of_literal(dt, self.aliases)
                        return tag if tag is not None else UNKNOWN
                    return self.type_of(node.args[0]) if node.args else UNKNOWN
                if tail in ("asarray", "ascontiguousarray", "array"):
                    dt = self._kw(node, "dtype")
                    if dt is not None:
                        tag = _dtype_of_literal(dt, self.aliases)
                        return tag if tag is not None else UNKNOWN
                    return self.type_of(node.args[0]) if node.args else UNKNOWN
                if tail in _MATMUL_FUNCS and len(node.args) >= 2:
                    ops = [self.type_of(a) for a in node.args[:2]]
                    if tail == "einsum" and len(node.args) >= 3:
                        ops = [self.type_of(a) for a in node.args[1:3]]
                    if ops and all(t == F16 for t in ops):
                        self.findings.append(
                            (node.lineno,
                             f"np.{tail}() with two known-fp16 operands — "
                             "the accumulation runs in half precision; "
                             "up-cast the operands or accumulate in fp32")
                        )
                    return _promote(*ops) if len(ops) == 2 else UNKNOWN

        # same-repo call: use the callee's return-dtype summary
        target = self.ctx.resolve_call(self.fn.file, func, cls=self.fn.cls)
        if target is not None:
            return self.return_summaries.get(target, UNKNOWN)
        return UNKNOWN

    def _note_downcast(self, node: ast.Call, source: str) -> None:
        if source in (F32, F64):
            self._pending_downcast = node.lineno
        else:
            self._pending_downcast = None

    _pending_downcast: Optional[int] = None

    # -- statement walk -----------------------------------------------------

    def run(self) -> None:
        for stmt in self.fn.node.body:  # type: ignore[attr-defined]
            self.visit(stmt)

    def visit(self, stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._pending_downcast = None
            tag = self.type_of(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = tag
                    if self._pending_downcast is not None:
                        self.tainted[target.id] = self._pending_downcast
                    else:
                        self.tainted.pop(target.id, None)
            self._check_taint_use(stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._pending_downcast = None
            tag = self.type_of(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = tag
        elif isinstance(stmt, ast.AugAssign):
            self._pending_downcast = None
            value_tag = self.type_of(stmt.value)
            target_tag = UNKNOWN
            if isinstance(stmt.target, ast.Name):
                target_tag = self.env.get(stmt.target.id, UNKNOWN)
            elif isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
                target_tag = self.type_of(stmt.target)
            if (
                self.loop_depth > 0
                and isinstance(stmt.op, (ast.Add, ast.Sub))
                and target_tag == F16
            ):
                name = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else "accumulator"
                )
                self.findings.append(
                    (stmt.lineno,
                     f"loop-carried accumulation into known-fp16 {name!r} — "
                     "initialise the accumulator as fp32 and down-cast at "
                     "materialisation")
                )
            self._check_taint_use(stmt.value)
            if isinstance(stmt.target, ast.Name) and stmt.target.id in self.tainted:
                self._report_taint(stmt.target.id, stmt.lineno)
            del value_tag
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.loop_depth += 1
            # two passes: accumulator inits above the loop are visible, and
            # names bound late in the body resolve on the second pass
            for _ in range(2):
                for sub in stmt.body:
                    self.visit(sub)
            self.loop_depth -= 1
            for sub in stmt.orelse:
                self.visit(sub)
        elif isinstance(stmt, ast.While):
            self.loop_depth += 1
            for _ in range(2):
                for sub in stmt.body:
                    self.visit(sub)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.If):
            for sub in stmt.body:
                self.visit(sub)
            for sub in stmt.orelse:
                self.visit(sub)
        elif isinstance(stmt, ast.With):
            for sub in stmt.body:
                self.visit(sub)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                for sub in block:
                    self.visit(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self.visit(sub)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._pending_downcast = None
                self.return_dtypes.append(self.type_of(stmt.value))
            # a downcast at return IS the sanctioned materialisation site
        elif isinstance(stmt, ast.Expr):
            self._pending_downcast = None
            self.type_of(stmt.value)
            self._check_taint_use(stmt.value)

    def _check_taint_use(self, expr: ast.expr) -> None:
        """A previously down-cast fp16 value re-entering arithmetic."""

        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Name) and side.id in self.tainted:
                        self._report_taint(side.id, node.lineno)

    def _report_taint(self, name: str, line: int) -> None:
        if name in self.reported_taint:
            return
        self.reported_taint.add(name)
        self.findings.append(
            (line,
             f"fp16 down-cast value {name!r} re-enters arithmetic — down-casts "
             "are sanctioned only at output materialisation")
        )

    def summary(self) -> str:
        tags = {t for t in self.return_dtypes if t != UNKNOWN}
        if len(tags) == 1:
            return tags.pop()
        return UNKNOWN


@rule("precision-flow",
      description="fp16 operands, fp32 accumulation, down-casts only at "
                  "output materialisation")
def check_precision_flow(ctx: AnalysisContext) -> List[Finding]:
    in_scope = {info.rel: info for info in ctx.files_under(*_SCOPE)}
    if not in_scope:
        return []
    alias_cache = {rel: _dtype_aliases(info) for rel, info in in_scope.items()}
    scope_fns = [fn for fn in ctx.functions.values() if fn.file.rel in in_scope]

    # two rounds: round 1 builds return-dtype summaries, round 2 types
    # every function with callee summaries available and collects findings
    summaries: Dict[str, str] = {}
    findings: List[Finding] = []
    for round_no in (1, 2):
        round_findings: List[Finding] = []
        for fn in scope_fns:
            typer = _FunctionTyper(ctx, fn, alias_cache[fn.file.rel], summaries)
            typer.run()
            summaries[fn.qualname] = typer.summary()
            if round_no == 2:
                # loop bodies are walked twice for env stability; dedupe
                seen: Set[Tuple[int, str]] = set()
                for line, message in typer.findings:
                    if (line, message) in seen:
                        continue
                    seen.add((line, message))
                    round_findings.append(
                        Finding("precision-flow", fn.file.rel, line, message)
                    )
        findings = round_findings
    return findings
