"""The two contract lints, as registry rules.

They are AST walks over the shared
:class:`~repro.analysis.core.AnalysisContext`, so one parse of the repo
feeds all six rules.  The kernel contracts (no input mutation, every
dispatch class in the case table, a reference twin per compiled plan)
are checked by running the kernels, in ``tests/test_lint_contracts.py``.
"""

from __future__ import annotations

import ast
from typing import List

from .core import AnalysisContext, Finding, decorator_name, rule

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
