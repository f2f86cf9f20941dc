"""Nsight-Compute-analog profiler over the simulator's obs/stats substrate.

The package turns the evidence the simulator already produces — authored
:class:`~repro.perfmodel.events.KernelStats`, interval-model latency
estimates and trace-replay sector streams — into Nsight-vocabulary
counters, a roofline classification with ranked bottleneck attribution,
and one exact counter baseline that CI checks every run against:

* :mod:`repro.profiler.counters` — per-launch counter derivation
  (:func:`derive_profile` -> :class:`KernelProfile`);
* :mod:`repro.profiler.roofline` — compute/memory/latency
  classification, two-ceiling roofline prediction and advice-ranked
  attribution;
* :mod:`repro.profiler.registry` — the 13 registered kernels on seeded
  fig20-style configs (:func:`profile_all`);
* :mod:`repro.profiler.baseline` — the ``{config, kernels}`` profile
  document and its exact check against ``tools/profile_baseline.json``;
* :mod:`repro.profiler.report` — tables, roofline summaries and diffs.

``python -m repro.cli profile`` is the front end.
"""

from .baseline import check_profiles, load_baseline, profile_document, write_document
from .counters import KernelProfile, derive_profile
from .registry import CONFIGS, DEFAULT_CONFIG, KERNEL_NAMES, ProfileConfig, profile_all
from .roofline import (
    attribution,
    classify,
    roofline_agreement,
    roofline_bound,
    roofline_doc,
)
from .report import diff_kernels, profile_table, roofline_summary

__all__ = [
    "KernelProfile",
    "derive_profile",
    "classify",
    "roofline_bound",
    "attribution",
    "roofline_doc",
    "roofline_agreement",
    "ProfileConfig",
    "CONFIGS",
    "DEFAULT_CONFIG",
    "KERNEL_NAMES",
    "profile_all",
    "profile_document",
    "write_document",
    "load_baseline",
    "check_profiles",
    "profile_table",
    "roofline_summary",
    "diff_kernels",
]
