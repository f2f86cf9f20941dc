"""JSON and SARIF 2.1.0 emitters for analysis findings.

The SARIF output is the minimal valid subset GitHub code scanning and the
usual viewers accept: one run, one driver with the rule catalogue, one
result per finding with a physical location.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .core import RULES, Finding

_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def to_json(findings: List[Finding]) -> str:
    """Findings as a JSON report string."""

    payload = {
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "severity": f.severity,
                "message": f.message,
            }
            for f in findings
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def to_sarif(findings: List[Finding]) -> str:
    """Findings as a SARIF 2.1.0 report string (see the module docstring)."""

    rule_ids = sorted({f.rule for f in findings} | set(RULES))
    rules = []
    for rid in rule_ids:
        spec = RULES.get(rid)
        rules.append(
            {
                "id": rid,
                "shortDescription": {
                    "text": spec.description if spec else rid,
                },
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL.get(spec.severity if spec else "error",
                                              "error"),
                },
            }
        )
    index: Dict[str, int] = {rid: i for i, rid in enumerate(rule_ids)}
    results = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": index[f.rule],
                "level": _SARIF_LEVEL.get(f.severity, "error"),
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {"startLine": max(f.line, 1)},
                        }
                    }
                ],
            }
        )
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2) + "\n"
