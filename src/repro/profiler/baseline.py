"""The profiler's one record and its one gate: an exact counter baseline.

:func:`profile_document` builds the ``{schema, config, kernels}``
document of a sweep: the config and every kernel's full
:meth:`KernelProfile.counters`.  ``cli profile --json`` writes it (with
the roofline document added) and ``cli profile --update-baseline``
writes it to ``tools/profile_baseline.json``.

``cli profile --check`` re-derives the document and fails (exit 1) on
any difference from the baseline: a changed counter, a kernel missing
from either side, or a different config.  There is no tolerance: the
simulator is deterministic and :func:`derive_profile` rounds every
float, so an unchanged tree reproduces the baseline exactly, and any
counter that moves is named (baseline -> current, delta %) with the
same rows ``cli profile --diff A B`` prints.  A baseline moves only by
a deliberate regeneration, reviewed counter by counter in its git diff
(workflow in ``docs/PROFILER.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .counters import KernelProfile
from .registry import ProfileConfig
from .report import _counter_diff

__all__ = [
    "BASELINE_SCHEMA",
    "profile_document",
    "write_document",
    "load_baseline",
    "check_profiles",
]

BASELINE_SCHEMA = 2


def profile_document(profiles: Dict[str, KernelProfile],
                     config: ProfileConfig) -> Dict[str, object]:
    """The ``{schema, config, kernels}`` document of one sweep."""
    return {
        "schema": BASELINE_SCHEMA,
        "config": config.as_dict(),
        "kernels": {n: p.counters() for n, p in sorted(profiles.items())},
    }


def write_document(path: Path, doc: Dict[str, object]) -> None:
    """Write a profile document (stable formatting for clean diffs)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def load_baseline(path: Path) -> Dict[str, object]:
    """Load and sanity-check a baseline document."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unsupported baseline schema {doc.get('schema')!r}")
    if not isinstance(doc.get("config"), dict) or not isinstance(doc.get("kernels"), dict):
        raise ValueError(f"{path}: baseline needs a config and a kernels map")
    return doc


def check_profiles(doc: Dict[str, object],
                   baseline: Dict[str, object]) -> Dict[str, List[Dict[str, object]]]:
    """Every difference of profile document ``doc`` from ``baseline``
    (empty = pass): ``{kernel: diff rows}``, one row per changed
    counter.  A kernel on one side only diffs against an empty record,
    so every counter shows ``n/a`` on the other side.  A config
    mismatch is the single entry ``"config"`` listing the changed config
    fields, since counters of different configs are not comparable."""
    def diff(base: Dict[str, object], cur: Dict[str, object]):
        return _counter_diff(base, cur, "baseline", "current")

    if doc["config"] != baseline["config"]:
        return {"config": diff(baseline["config"], doc["config"])}
    base, cur = baseline["kernels"], doc["kernels"]
    changed = {}
    for name in sorted(set(base) | set(cur)):
        rows = diff(base.get(name, {}), cur.get(name, {}))
        if rows:
            changed[name] = rows
    return changed
