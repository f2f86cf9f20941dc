"""Central registry of ``REPRO_*`` environment gates.

Every environment variable the system reads is declared here exactly once,
with its default and a docstring; readers go through :func:`flag` /
:func:`raw` with a *literal* gate name.

Flag semantics (shared by every boolean gate):

* unset or blank -> the declared default;
* default-on gates ("1") are disabled only by an explicit
  ``0``/``off``/``false``/``no`` — unknown junk keeps them on;
* default-off gates ("0") are enabled only by an explicit
  ``1``/``on``/``true``/``yes`` — unknown junk keeps them off.

This matches the historical per-module parsers these gates grew up with,
so converting readers to the registry changed no observable behaviour.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

__all__ = ["EnvGate", "GATES", "flag", "raw"]

_TRUTHY = ("1", "on", "true", "yes")
_FALSY = ("0", "off", "false", "no")


@dataclass(frozen=True)
class EnvGate:
    """One declared environment variable: name, default, kind, doc."""

    name: str
    default: str
    kind: str  # "flag" | "value"
    doc: str


def _registry(*gates: EnvGate) -> Dict[str, EnvGate]:
    out: Dict[str, EnvGate] = {}
    for gate in gates:
        if gate.name in out:
            raise ValueError(f"duplicate gate {gate.name}")
        if gate.kind not in ("flag", "value"):
            raise ValueError(f"bad gate kind {gate.kind!r}")
        out[gate.name] = gate
    return out


GATES: Dict[str, EnvGate] = _registry(
    EnvGate("REPRO_MEMO", "1", "flag",
            "In-process content-addressed memo regions (stats/latency/trace/"
            "suite/plan/problem/format). Default on; set 0 to force every "
            "compute fresh."),
    EnvGate("REPRO_MEMO_SHARED", "0", "flag",
            "Cross-process shared memo tier (one checksummed file per "
            "entry, layered as L2 under the in-process regions). Default off."),
    EnvGate("REPRO_MEMO_SHARED_DIR", "", "value",
            "Directory backing the shared memo store; blank means the "
            "default .repro-memo next to the working directory."),
    EnvGate("REPRO_TRACE", "0", "flag",
            "Span tracer master switch (Chrome-trace export, cli obs). "
            "Default off; the disabled path is a no-op check."),
    EnvGate("REPRO_CHAOS", "", "value",
            "Chaos-testing spec for the experiment runner, e.g. crash:fig5 "
            "to kill that experiment's worker mid-sweep. Blank disables."),
    EnvGate("REPRO_SERVING_VERIFY", "1", "flag",
            "Batch-result verification in the serving simulator; detected "
            "corruptions are retried, never served. Default on; set 0 to "
            "model an unprotected cluster (corrupt-served outcomes)."),
    EnvGate("REPRO_SERVING_TIMELINE", "", "value",
            "Cap on exported serving-timeline events (cli serve "
            "--trace-out). Blank means the default 20000; the cap keeps "
            "the earliest events and is reported, never silent."),
)


def raw(name: str) -> str:
    """The raw string value of a declared gate (default when unset)."""

    gate = GATES[name]
    value = os.environ.get(name)
    return gate.default if value is None else value


def flag(name: str) -> bool:
    """Boolean value of a declared flag gate under the shared semantics."""

    gate = GATES[name]
    if gate.kind != "flag":
        raise ValueError(f"{name} is a value gate, not a flag")
    value = os.environ.get(name)
    if value is None or not value.strip():
        value = gate.default
    value = value.strip().lower()
    if gate.default not in ("", "0"):
        return value not in _FALSY
    return value in _TRUTHY
