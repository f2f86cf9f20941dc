"""env-gate-registry: every ``REPRO_*`` read goes through one registry.

``src/repro/envgates.py`` declares each environment gate once (name,
default, kind, doc).  This rule enforces the round trip statically:

* no direct ``os.environ`` / ``os.getenv`` read of a ``REPRO_*`` literal
  outside the registry module;
* every ``envgates.flag(...)`` / ``envgates.raw(...)`` call uses a literal name that the registry declares — so deleting a
  registry entry fails the analysis, not a production run;
* every declared gate is read by at least one accessor call somewhere, so
  the registry cannot drift into documentation fiction.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .core import AnalysisContext, Finding, dotted_call_name, rule

_REGISTRY_REL = "src/repro/envgates.py"
_REGISTRY_MODULE = "repro.envgates"
_ACCESSORS = {"flag", "raw"}


def _declared_gates(ctx: AnalysisContext) -> Optional[Dict[str, int]]:
    info = ctx.file_at(_REGISTRY_REL)
    if info is None:
        return None
    gates: Dict[str, int] = {}
    for node in ast.walk(info.tree):
        if (
            isinstance(node, ast.Call)
            and dotted_call_name(node.func).rsplit(".", 1)[-1] == "EnvGate"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            gates[node.args[0].value] = node.lineno
    return gates


def _is_envgates_accessor(ctx: AnalysisContext, info, node: ast.Call, cls) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    if name not in _ACCESSORS:
        return False
    target = ctx.resolve_call(info, func, cls=cls)
    if target is not None:
        return target.startswith(f"{_REGISTRY_MODULE}:")
    # unresolved `envgates.flag(...)` through an alias the resolver missed:
    # accept when the receiver is literally named envgates
    if isinstance(func, ast.Attribute):
        dotted = dotted_call_name(func)
        return dotted.split(".")[-2:-1] == ["envgates"]
    return False


def _module_str_constants(info) -> Dict[str, str]:
    """Module-level ``_ENV_FLAG = "REPRO_X"`` style string constants."""

    out: Dict[str, str] = {}
    for node in info.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                out[target.id] = node.value.value
    return out


def _name_of(node: ast.expr, consts: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _environ_literal(node: ast.AST, consts: Dict[str, str]) -> Optional[Tuple[str, int]]:
    """(var name, line) when ``node`` reads an env var whose name is a
    literal or a module-level string constant."""

    if isinstance(node, ast.Call):
        dotted = dotted_call_name(node.func)
        if dotted.endswith("os.getenv") or dotted == "getenv" or \
                dotted.endswith("environ.get"):
            if node.args:
                name = _name_of(node.args[0], consts)
                if name is not None:
                    return name, node.lineno
    if isinstance(node, ast.Subscript):
        base = dotted_call_name(node.value)
        if base.endswith("os.environ") or base == "environ":
            name = _name_of(node.slice, consts)
            if name is not None:
                return name, node.lineno
    return None


@rule("env-gate-registry",
      description="every REPRO_* environ read is declared once in "
                  "repro.envgates and every declared gate is read")
def check_env_gates(ctx: AnalysisContext) -> List[Finding]:
    declared = _declared_gates(ctx)
    findings: List[Finding] = []
    used: Set[str] = set()

    for info in ctx.files:
        if info.rel == _REGISTRY_REL:
            continue
        fn_by_node = {fn.node: fn for fn in ctx.functions_in(info)}
        consts = _module_str_constants(info)
        for node in ast.walk(info.tree):
            read = _environ_literal(node, consts)
            if read is not None and read[0].startswith("REPRO_"):
                var, line = read
                findings.append(
                    Finding(
                        "env-gate-registry", info.rel, line,
                        f"direct os.environ read of {var} — declare it in "
                        "repro.envgates and read it through "
                        "envgates.flag()/raw()",
                    )
                )
            if not isinstance(node, ast.Call):
                continue
            # attribute chains do not tell us the enclosing class; walk the
            # functions table instead for method-scope resolution
            cls = None
            for fn in fn_by_node.values():
                if (
                    fn.node.lineno <= node.lineno
                    and node.lineno <= (fn.node.end_lineno or fn.node.lineno)
                ):
                    cls = fn.cls
                    break
            if not _is_envgates_accessor(ctx, info, node, cls):
                continue
            name = _name_of(node.args[0], consts) if node.args else None
            if name is None:
                findings.append(
                    Finding(
                        "env-gate-registry", info.rel, node.lineno,
                        "envgates accessor called with a non-literal gate "
                        "name — the registry check needs a literal",
                    )
                )
                continue
            used.add(name)
            if declared is not None and name not in declared:
                findings.append(
                    Finding(
                        "env-gate-registry", info.rel, node.lineno,
                        f"envgates accessor reads undeclared gate {name} — "
                        "add an EnvGate entry to repro.envgates",
                    )
                )

    if declared:
        registry = ctx.file_at(_REGISTRY_REL)
        for name, line in sorted(declared.items()):
            if name not in used:
                findings.append(
                    Finding(
                        "env-gate-registry", registry.rel, line,
                        f"declared gate {name} is never read through an "
                        "envgates accessor — dead registry entry",
                    )
                )
    return findings
