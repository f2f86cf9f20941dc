"""Findings model shared by every sanitizer checker.

The sanitizer mirrors NVIDIA's ``compute-sanitizer`` tool family: each
checker produces :class:`Finding` records instead of raising, so one
run reports every violation of a kernel at once (the way ``memcheck``
reports every bad access of a launch).  A :class:`SanitizerReport`
aggregates the findings of all checkers that ran for one kernel case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["Checker", "Finding", "SanitizerReport", "format_reports"]


class Checker(str, enum.Enum):
    """Checker families and their hardware-tool analogs."""

    #: global-memory bounds/alignment on sector streams (= memcheck)
    MEMCHECK = "memcheck"
    #: shared-memory data races between warps (= racecheck)
    RACECHECK = "racecheck"
    #: barrier divergence / participation (= synccheck)
    SYNCCHECK = "synccheck"
    #: HMMA octet/thread-group fragment ownership (racecheck family,
    #: specialised to the tensor-core register contract of §2.2/§6.3)
    OWNERSHIP = "ownership"
    #: static KernelStats consistency (= the Nsight counter sanity a
    #: profiler run would expose)
    STATCHECK = "statcheck"


@dataclass(frozen=True)
class Finding:
    """One contract violation, attributed to a single checker."""

    checker: Checker
    kernel: str
    message: str
    #: where it happened, e.g. ``"cta 3, op 1"`` or ``"stats.flops"``
    location: str = ""

    def __str__(self) -> str:
        loc = f" @ {self.location}" if self.location else ""
        return f"[{self.checker.value}] {self.kernel}{loc}: {self.message}"


@dataclass
class SanitizerReport:
    """Outcome of sanitizing one kernel case over one problem suite."""

    kernel: str
    #: checker families that actually ran for this case
    checks_run: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    #: work counters (sectors checked, accesses checked, ...) so a
    #: "zero findings" line is distinguishable from "nothing ran"
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def ran(self, checker: Checker) -> None:
        if checker.value not in self.checks_run:
            self.checks_run.append(checker.value)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def record(self, result, *checkers: Checker) -> None:
        """Mark ``checkers`` as run and fold one pass's ``(findings,
        counters)`` result in."""
        for chk in checkers:
            self.ran(chk)
        findings, counters = result
        self.extend(findings)
        for key, n in counters.items():
            self.count(key, n)

    def format(self, verbose: bool = False) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        head = f"{self.kernel}: {status}  [{', '.join(self.checks_run)}]"
        if verbose and self.counters:
            checked = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            head += f"  ({checked})"
        lines = [head]
        lines.extend(f"  {f}" for f in self.findings)
        return "\n".join(lines)


def format_reports(reports: Iterable[SanitizerReport], verbose: bool = False) -> str:
    """Multi-kernel summary block, one report per kernel case."""
    reports = list(reports)
    body = "\n".join(r.format(verbose=verbose) for r in reports)
    total = sum(len(r.findings) for r in reports)
    tail = f"\n{len(reports)} case(s), {total} finding(s)"
    return body + tail
