"""One module per paper table/figure; see DESIGN.md's experiment index.

* :mod:`~repro.experiments.fig4_fine_grained` — Figure 4;
* :mod:`~repro.experiments.fig5_gemm_vs_spmm` — Figure 5;
* :mod:`~repro.experiments.fig6_blocked_ell` — Figure 6;
* :mod:`~repro.experiments.table1_stalls` — Table 1;
* :mod:`~repro.experiments.fig17_spmm_speedup` — Figure 17;
* :mod:`~repro.experiments.fig18_l2_traffic` — Figure 18;
* :mod:`~repro.experiments.table2_guidelines_spmm` — Table 2;
* :mod:`~repro.experiments.fig19_sddmm_speedup` — Figure 19;
* :mod:`~repro.experiments.table3_guidelines_sddmm` — Table 3;
* :mod:`~repro.experiments.table4_transformer` — Table 4;
* :mod:`~repro.experiments.fig20_attention_latency` — Figure 20;
* :mod:`~repro.experiments.runner` — run-all CLI (``repro-experiments``).
"""

from . import (
    ablations,
    sensitivity,
    fig4_fine_grained,
    fig5_gemm_vs_spmm,
    fig6_blocked_ell,
    fig17_spmm_speedup,
    fig18_l2_traffic,
    fig19_sddmm_speedup,
    fig20_attention_latency,
    table1_stalls,
    table2_guidelines_spmm,
    table3_guidelines_sddmm,
    table4_transformer,
)
from .claims import PAPER_CLAIMS, Claim, ClaimVerdict, verify
from .charts import bar_chart, line_chart, render_fig17, render_fig20
from .common import ExperimentResult, geomean

__all__ = [
    "ExperimentResult",
    "ablations",
    "sensitivity",
    "geomean",
    "bar_chart",
    "PAPER_CLAIMS",
    "Claim",
    "ClaimVerdict",
    "verify",
    "line_chart",
    "render_fig17",
    "render_fig20",
    "fig4_fine_grained",
    "fig5_gemm_vs_spmm",
    "fig6_blocked_ell",
    "fig17_spmm_speedup",
    "fig18_l2_traffic",
    "fig19_sddmm_speedup",
    "fig20_attention_latency",
    "table1_stalls",
    "table2_guidelines_spmm",
    "table3_guidelines_sddmm",
    "table4_transformer",
]
