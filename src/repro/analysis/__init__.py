"""Whole-repo static analysis for the repro system.

Six registered rules over one shared parse: two contract lints
(``seeded-rng``, ``span-outside-memo``) and four semantic passes
(``memo-key-soundness``, ``precision-flow``, ``env-gate-registry``,
``obs-naming-contract``).  The kernel contracts are checked by running
the kernels instead (``tests/test_lint_contracts.py``).

Entry points: :func:`run_analysis` (programmatic),
``python -m repro.cli analyze`` (CLI, with JSON/SARIF output).  See
``docs/ANALYSIS.md`` for the rule catalogue and the suppression comments
that waive a finding.
"""

from __future__ import annotations

from .core import (  # noqa: F401
    RULES,
    AnalysisContext,
    Finding,
    Rule,
    run_analysis,
    validate_rule_ids,
)

# importing the rule modules populates the registry
from . import contracts  # noqa: E402,F401
from . import envcheck  # noqa: E402,F401
from . import memokey  # noqa: E402,F401
from . import obscheck  # noqa: E402,F401
from . import precision  # noqa: E402,F401

from .emit import to_json, to_sarif  # noqa: E402,F401

__all__ = [
    "AnalysisContext",
    "Finding",
    "RULES",
    "Rule",
    "run_analysis",
    "to_json",
    "to_sarif",
    "validate_rule_ids",
]
