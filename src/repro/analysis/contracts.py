"""The five contract lints, as registry rules.

They are AST walks over the shared
:class:`~repro.analysis.core.AnalysisContext`, so one parse of the repo
feeds all ten rules.
"""

from __future__ import annotations

import ast
from typing import List, Set

from .core import (
    AnalysisContext,
    Finding,
    decorator_name,
    direct_param_mutations,
    rule,
)

__all__ = [
    "kernel_classes_from_dispatch",
    "plans_aliases",
]

#: legacy numpy global-RNG entry points (nondeterministic unless seeded
#: through hidden module state, which the repo bans outright)
LEGACY_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "standard_normal", "uniform",
}

#: observability span decorators (repro.obs.tracing)
SPAN_DECORATORS = {"traced"}
#: memoisation decorators (repro.perfmodel.memo)
MEMO_DECORATORS = {"memoise", "memoised", "memoised_rng", "memoised_stats"}

_DISPATCH_REL = "src/repro/kernels/dispatch.py"


def kernel_classes_from_dispatch(tree: ast.Module) -> List[str]:
    """Class names appearing as values of SPMM_KERNELS / SDDMM_KERNELS."""

    names: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(
            isinstance(t, ast.Name) and t.id in ("SPMM_KERNELS", "SDDMM_KERNELS")
            for t in targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            for v in value.values:
                if isinstance(v, ast.Name):
                    names.append(v.id)
    return sorted(set(names))


@rule("parity-tests", description="every dispatch-registered kernel has a parity test")
def check_parity_tests(ctx: AnalysisContext) -> List[Finding]:
    dispatch = ctx.file_at(_DISPATCH_REL)
    if dispatch is None:
        return []  # nothing is dispatchable in this tree
    classes = kernel_classes_from_dispatch(dispatch.tree)
    if not classes:
        return [
            Finding("parity-tests", dispatch.rel, 1,
                    "no kernel registrations found in dispatch.py")
        ]
    corpus = ctx.tests_corpus
    return [
        Finding(
            "parity-tests", dispatch.rel, 1,
            f"dispatch-registered kernel {cls} is never referenced under "
            "tests/ — add a parity test",
        )
        for cls in classes
        if cls not in corpus
    ]


@rule("no-input-mutation", description="functional kernels never mutate their inputs")
def check_no_input_mutation(ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for info in ctx.files_under("src/repro/kernels"):
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not (node.name.startswith("_execute") or node.name == "run"):
                continue
            args = node.args
            params = {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            } - {"self"}
            for name, lineno, _kind in direct_param_mutations(node, sorted(params)):
                findings.append(
                    Finding(
                        "no-input-mutation", info.rel, lineno,
                        f"{node.name}() stores into input parameter {name!r}",
                    )
                )
    return findings


@rule("seeded-rng", description="no nondeterminism outside seeded generators")
def check_seeded_rng(ctx: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for info in ctx.files:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            # np.random.<legacy>(...) — hidden global state
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in LEGACY_NP_RANDOM
                and isinstance(fn.value, ast.Attribute)
                and fn.value.attr == "random"
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id in ("np", "numpy")
            ):
                findings.append(
                    Finding(
                        "seeded-rng", info.rel, node.lineno,
                        f"legacy np.random.{fn.attr}() call — use a seeded "
                        "default_rng passed in explicitly",
                    )
                )
            # default_rng() with no seed — OS-entropy nondeterminism
            is_default_rng = (
                (isinstance(fn, ast.Name) and fn.id == "default_rng")
                or (isinstance(fn, ast.Attribute) and fn.attr == "default_rng")
            )
            if is_default_rng and not node.args and not node.keywords:
                findings.append(
                    Finding(
                        "seeded-rng", info.rel, node.lineno,
                        "default_rng() without a seed — pass an explicit seed",
                    )
                )
    return findings


@rule("span-outside-memo",
      description="observability spans live inside the memo boundary")
def check_span_outside_memo(ctx: AnalysisContext) -> List[Finding]:
    """A span-decorated function must not itself be a memoised builder.

    ``decorator_list[0]`` is the *outermost* decorator.  When a span
    decorator wraps a memo decorator, every call records a span — cache
    hits included — so the timeline shows the lookup, not the build.  The
    span belongs inside the memo boundary (the memo layer already emits
    ``memo.miss.<region>`` spans around cache-miss computes).
    """

    findings: List[Finding] = []
    for info in ctx.files:
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [decorator_name(d) for d in node.decorator_list]
            span_idx = [i for i, n in enumerate(names) if n in SPAN_DECORATORS]
            memo_idx = [i for i, n in enumerate(names) if n in MEMO_DECORATORS]
            if not span_idx or not memo_idx:
                continue
            if min(span_idx) < max(memo_idx):
                findings.append(
                    Finding(
                        "span-outside-memo", info.rel, node.lineno,
                        f"{node.name}() wraps a memoised builder in a span "
                        "decorator — move the span inside the memo boundary "
                        "(the memo layer already traces cache-miss computes)",
                    )
                )
    return findings


def plans_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the ``repro.plans`` package itself.

    ``from .. import plans as _plans`` and ``import repro.plans as P``
    count; importing a single helper out of a plans submodule does not.
    """

    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "plans" or a.name.endswith(".plans"):
                    if a.asname:
                        aliases.add(a.asname)
                    elif a.name == "plans":
                        aliases.add("plans")
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name == "plans":
                    aliases.add(a.asname or "plans")
    return aliases


@rule("plan-reference-twins",
      description="plan-compiled kernels keep tested interpreted reference twins")
def check_plan_reference_twins(ctx: AnalysisContext) -> List[Finding]:
    """Every plan-compiled kernel function has a tested reference twin.

    A function (module-level or method) in ``src/repro/kernels/`` that
    touches a ``repro.plans`` alias executes through a compiled plan; the
    interpreted walk it replaced must survive as a ``<name>_reference``
    sibling in the same scope, and that twin's name must appear under
    ``tests/`` so the parity is actually exercised.
    """

    findings: List[Finding] = []
    corpus = ctx.tests_corpus
    for info in ctx.files_under("src/repro/kernels"):
        aliases = plans_aliases(info.tree)
        if not aliases:
            continue
        scopes = [info.tree.body] + [
            n.body for n in info.tree.body if isinstance(n, ast.ClassDef)
        ]
        for body in scopes:
            siblings = {n.name for n in body if isinstance(n, ast.FunctionDef)}
            for node in body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.endswith("_reference"):
                    continue
                if not any(
                    isinstance(sub, ast.Name) and sub.id in aliases
                    for sub in ast.walk(node)
                ):
                    continue
                twin = f"{node.name}_reference"
                if twin not in siblings:
                    findings.append(
                        Finding(
                            "plan-reference-twins", info.rel, node.lineno,
                            f"{node.name}() executes through a compiled plan "
                            f"but keeps no interpreted {twin}() twin in the "
                            "same scope",
                        )
                    )
                elif twin not in corpus:
                    findings.append(
                        Finding(
                            "plan-reference-twins", info.rel, node.lineno,
                            f"{twin}() is never referenced under tests/ — add "
                            "a plan-vs-reference parity test",
                        )
                    )
    return findings
