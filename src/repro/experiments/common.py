"""Shared experiment infrastructure.

Every experiment module exposes ``run(...) -> ExperimentResult`` whose
rows regenerate one of the paper's tables or figures (series for
figures, rows for tables).  ``quick=True`` shrinks the benchmark suite
so the whole harness runs in seconds; the full suite mirrors §7.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


from ..datasets.dlmc import RESNET50_SHAPES, SPARSITIES, DlmcEntry, dlmc_suite
from ..profiler.report import format_table

__all__ = [
    "ExperimentResult",
    "geomean",
    "suite_for",
    "QUICK_SHAPES",
    "format_table",
]

#: reduced shape set for quick runs (keeps the §7.2.2 reference shape)
QUICK_SHAPES: Tuple[Tuple[int, int], ...] = ((256, 512), (512, 1024), (2048, 1024))


@dataclass
class ExperimentResult:
    """Rows + metadata for one regenerated table/figure."""

    name: str
    paper_artifact: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        head = f"== {self.name} — {self.paper_artifact} ==\n{self.description}\n"
        body = format_table(self.rows)
        tail = ""
        if self.notes:
            tail = "\n" + "\n".join(f"  note: {k} = {v}" for k, v in self.notes.items())
        return head + body + tail

    def series(self, key: str) -> List[object]:
        return [r[key] for r in self.rows]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean over the positive entries (Gale et al.'s metric)."""
    vals = [float(v) for v in values if v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def suite_for(
    quick: bool,
    sparsities: Sequence[float] = SPARSITIES,
    seed: int = 2021,
) -> List[DlmcEntry]:
    """Benchmark suite: reduced shapes when ``quick``, else §7.1's."""
    shapes = QUICK_SHAPES if quick else RESNET50_SHAPES
    return dlmc_suite(shapes=shapes, sparsities=sparsities, seed=seed)
