"""Metrics, tables and per-set maps for the evaluation harness."""

from repro.analysis.metrics import (
    arithmetic_mean,
    percent_reduction,
    percent_improvement,
    summarize_policy_metric,
)
from repro.analysis.tables import render_table
from repro.analysis.setmap import SetMap, collect_setmap
from repro.analysis.report import build_report, result_to_markdown
from repro.analysis.pressure import (
    DisagreementReport,
    component_disagreement,
    miss_imbalance,
)

__all__ = [
    "build_report",
    "result_to_markdown",
    "DisagreementReport",
    "component_disagreement",
    "miss_imbalance",
    "arithmetic_mean",
    "percent_reduction",
    "percent_improvement",
    "summarize_policy_metric",
    "render_table",
    "SetMap",
    "collect_setmap",
]
