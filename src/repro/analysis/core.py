"""Shared infrastructure for the repro static-analysis engine.

The engine is a whole-repo analyser: it loads every Python file under
``src/repro``, parses it once, builds a symbol table (module -> functions
and classes), resolves imports (absolute and relative) well enough to
answer "which function does this call refer to?", and derives a call
graph.  Rules are registered in a global registry with an ID, a severity
and a description; each rule is a function ``check(ctx) -> [Finding]``.

Interprocedural passes follow the classic summary-then-propagate shape:
compute an intraprocedural summary per function (what dtype it
returns, what it reads), then propagate summaries over the call
graph to a fixpoint.  The helpers here (:class:`AnalysisContext`,
:func:`reachable_from`) keep the passes themselves small.

Suppressions: a finding on line N is suppressed by a trailing comment
``# repro: ignore[rule-id]`` on line N or on the line directly above it
(``# repro: ignore`` with no bracket suppresses every rule on that line).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AnalysisContext",
    "FileInfo",
    "Finding",
    "FunctionInfo",
    "RULES",
    "Rule",
    "decorator_name",
    "dotted_call_name",
    "reachable_from",
    "rule",
    "run_analysis",
]

SEVERITIES = ("error", "warning", "note")

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")


# ---------------------------------------------------------------------------
# Findings and the rule registry
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    """One diagnostic."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.rule}: {self.path}:{self.line} {self.message}"


@dataclass(frozen=True)
class Rule:
    id: str
    severity: str
    description: str
    check: Callable[["AnalysisContext"], List[Finding]]


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: str = "error", description: str = ""):
    """Class-free registration decorator for rule check functions."""

    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(fn: Callable[["AnalysisContext"], List[Finding]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        doc = (fn.__doc__ or "").strip()
        desc = description or (doc.splitlines()[0] if doc else "")
        RULES[rule_id] = Rule(rule_id, severity, desc, fn)
        return fn

    return register


# ---------------------------------------------------------------------------
# Files, modules, functions
# ---------------------------------------------------------------------------


@dataclass
class FileInfo:
    path: Path
    rel: str  # posix path relative to the repo root
    module: str  # dotted module name, e.g. "repro.kernels.base"
    source: str
    tree: ast.Module
    # line -> set of suppressed rule ids ("*" means all rules)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    # local alias -> dotted module ("import numpy as np" -> {"np": "numpy"})
    imports: Dict[str, str] = field(default_factory=dict)
    # local name -> (module, attr) ("from x import y as z" -> {"z": ("x", "y")})
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    qualname: str  # "<module>:<Class>.<name>" or "<module>:<name>"
    module: str
    name: str
    cls: Optional[str]
    file: FileInfo
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: List[str]

    @property
    def line(self) -> int:
        return self.node.lineno


def decorator_name(node: ast.expr) -> str:
    """Terminal name of a decorator: ``@memo.memoised("x")`` -> ``memoised``."""

    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def dotted_call_name(node: ast.expr) -> str:
    """Best-effort dotted rendering of a call target: ``np.random.rand``."""

    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        ids = m.group(1)
        if ids is None:
            out[lineno] = {"*"}
        else:
            out[lineno] = {part.strip() for part in ids.split(",") if part.strip()}
    return out


def _module_name(rel: str) -> str:
    """``src/repro/kernels/base.py`` -> ``repro.kernels.base``."""

    parts = Path(rel).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class AnalysisContext:
    """Parsed view of one repository checkout.

    Loads ``src/repro/**/*.py`` (the analysed surface).  Works on the
    real repo and on the mini-repos the test corpus checks in.
    """

    def __init__(self, repo: Path):
        self.repo = Path(repo)
        self.files: List[FileInfo] = []
        self.modules: Dict[str, FileInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        # module -> {name -> class node}
        self.classes: Dict[str, Dict[str, ast.ClassDef]] = {}
        # caller qualname -> [(callee qualname, lineno)]
        self.callees: Dict[str, List[Tuple[str, int]]] = {}
        self._load()
        self._index()
        self._build_call_graph()

    # -- loading ------------------------------------------------------------

    def _load(self) -> None:
        src = self.repo / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(self.repo).as_posix()
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:  # pragma: no cover - repo must parse
                raise SyntaxError(f"{rel}: {exc}") from exc
            info = FileInfo(
                path=path,
                rel=rel,
                module=_module_name(rel),
                source=source,
                tree=tree,
                suppressions=_parse_suppressions(source),
            )
            self._collect_imports(info)
            self.files.append(info)
            self.modules[info.module] = info

    def _collect_imports(self, info: FileInfo) -> None:
        pkg_parts = info.module.split(".")
        if not info.rel.endswith("__init__.py"):
            pkg_parts = pkg_parts[:-1]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = pkg_parts[: len(pkg_parts) - node.level + 1]
                    prefix = ".".join(base)
                    if node.module:
                        prefix = f"{prefix}.{node.module}" if prefix else node.module
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.from_imports[local] = (prefix, alias.name)

    # -- symbol table -------------------------------------------------------

    def _index(self) -> None:
        for info in self.files:
            self.classes[info.module] = {}
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(info, node, cls=None)
                elif isinstance(node, ast.ClassDef):
                    self.classes[info.module][node.name] = node
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._add_function(info, item, cls=node.name)

    def _add_function(self, info: FileInfo, node: ast.AST, cls: Optional[str]) -> None:
        name = node.name  # type: ignore[attr-defined]
        qual = f"{info.module}:{cls}.{name}" if cls else f"{info.module}:{name}"
        args = node.args  # type: ignore[attr-defined]
        params = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            params.append(args.vararg.arg)
        params.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            params.append(args.kwarg.arg)
        self.functions[qual] = FunctionInfo(
            qualname=qual,
            module=info.module,
            name=name,
            cls=cls,
            file=info,
            node=node,
            params=params,
        )

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self, info: FileInfo, node: ast.expr, cls: Optional[str] = None
    ) -> Optional[str]:
        """Resolve a call target expression to a function qualname, or None.

        Handles: local names, ``from mod import fn`` (with aliases),
        ``from pkg import mod`` + ``mod.fn``, ``import pkg.mod`` +
        ``pkg.mod.fn``, and ``self.method`` within a class (including
        same-module single-inheritance bases).
        """

        if isinstance(node, ast.Name):
            name = node.id
            qual = f"{info.module}:{name}"
            if qual in self.functions:
                return qual
            if name in info.from_imports:
                mod, attr = info.from_imports[name]
                return self._lookup(mod, attr)
            return None
        if isinstance(node, ast.Attribute):
            attr = node.attr
            base = node.value
            if isinstance(base, ast.Name):
                if base.id == "self" and cls is not None:
                    return self._lookup_method(info.module, cls, attr)
                if base.id in info.from_imports:
                    mod, sub = info.from_imports[base.id]
                    # "from pkg import mod" then mod.fn
                    return self._lookup(f"{mod}.{sub}" if mod else sub, attr)
                if base.id in info.imports:
                    return self._lookup(info.imports[base.id], attr)
                # a same-module class used as a namespace: Cls.method
                if base.id in self.classes.get(info.module, {}):
                    return self._lookup_method(info.module, base.id, attr)
                return None
            dotted = dotted_call_name(base)
            if dotted:
                head, _, rest = dotted.partition(".")
                if head in info.imports:
                    mod = info.imports[head] + (f".{rest}" if rest else "")
                    return self._lookup(mod, attr)
            return None
        return None

    def _lookup(self, module: str, name: str) -> Optional[str]:
        qual = f"{module}:{name}"
        if qual in self.functions:
            return qual
        # "from pkg import name" where name is itself a module
        sub = f"{module}.{name}"
        if sub in self.modules:
            return None
        # re-export through a package __init__
        init = self.modules.get(module)
        if init is not None and name in init.from_imports:
            mod, attr = init.from_imports[name]
            if (mod, attr) != (module, name):
                return self._lookup(mod, attr)
        return None

    def _lookup_method(self, module: str, cls: str, name: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            qual = f"{module}:{current}.{name}"
            if qual in self.functions:
                return qual
            node = self.classes.get(module, {}).get(current)
            if node is None:
                continue
            for base in node.bases:
                if isinstance(base, ast.Name):
                    stack.append(base.id)
        return None

    def _build_call_graph(self) -> None:
        for fn in self.functions.values():
            edges: List[Tuple[str, int]] = []
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(fn.file, node.func, cls=fn.cls)
                if target is not None:
                    edges.append((target, node.lineno))
            self.callees[fn.qualname] = edges

    # -- convenience --------------------------------------------------------

    def files_under(self, *prefixes: str) -> List[FileInfo]:
        return [
            info
            for info in self.files
            if any(info.rel == p or info.rel.startswith(p.rstrip("/") + "/") for p in prefixes)
        ]

    def file_at(self, rel: str) -> Optional[FileInfo]:
        for info in self.files:
            if info.rel == rel:
                return info
        return None

    def functions_in(self, info: FileInfo) -> List[FunctionInfo]:
        return [fn for fn in self.functions.values() if fn.file is info]

    def suppressed(self, finding: Finding) -> bool:
        info = self.file_at(finding.path)
        if info is None:
            return False
        for line in (finding.line, finding.line - 1):
            ids = info.suppressions.get(line)
            if ids and ("*" in ids or finding.rule in ids):
                return True
        return False


# ---------------------------------------------------------------------------
# Shared interprocedural helpers
# ---------------------------------------------------------------------------


def reachable_from(ctx: AnalysisContext, roots: Iterable[str]) -> Dict[str, str]:
    """BFS the call graph; returns {reachable qualname: originating root}."""

    origin: Dict[str, str] = {}
    queue: List[str] = []
    for root in roots:
        if root not in origin:
            origin[root] = root
            queue.append(root)
    while queue:
        current = queue.pop()
        for callee, _line in ctx.callees.get(current, ()):
            if callee not in origin:
                origin[callee] = origin[current]
                queue.append(callee)
    return origin


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------


def validate_rule_ids(rule_ids: Optional[Sequence[str]]) -> List[str]:
    """Sorted registry ids to run; ValueError on unknown ids (None = all)."""

    all_ids = sorted(RULES)
    if rule_ids is None:
        return all_ids
    unknown = sorted(set(rule_ids) - set(all_ids))
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(unknown)} (valid: {', '.join(all_ids)})"
        )
    # preserve registry order, deduplicate
    wanted = set(rule_ids)
    return [rid for rid in all_ids if rid in wanted]


def run_analysis(
    repo: Path,
    rule_ids: Optional[Sequence[str]] = None,
    *,
    ctx: Optional[AnalysisContext] = None,
) -> List[Finding]:
    """Run the selected rules (default: all) and return unsuppressed findings."""

    ids = validate_rule_ids(rule_ids)
    if ctx is None:
        ctx = AnalysisContext(Path(repo))
    findings: List[Finding] = []
    for rid in ids:
        spec = RULES[rid]
        for finding in spec.check(ctx):
            finding.severity = spec.severity
            findings.append(finding)
    findings = [f for f in findings if not ctx.suppressed(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
