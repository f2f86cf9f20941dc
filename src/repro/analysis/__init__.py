"""Whole-repo static analysis for the repro system.

Ten registered rules over one shared parse: the five PR-3 contract lints
(``parity-tests``, ``no-input-mutation``, ``seeded-rng``,
``span-outside-memo``, ``plan-reference-twins``) and five semantic passes
(``memo-key-soundness``, ``precision-flow``, ``env-gate-registry``,
``obs-naming-contract``, ``purity-propagation``).

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
from . import purity  # noqa: E402,F401

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
