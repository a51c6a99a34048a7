"""Rendering of experiment results into the paper's tables/figures."""

from repro.analysis.figures import (
    colocation_series,
    figure1_series,
    figure2_series,
    figure3_series,
    figure4_series,
    render_colocation,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
)
from repro.analysis.report import ReportConfig, generate_report
from repro.analysis.tables import render_table, render_table1
from repro.analysis.validation import (
    ClaimCheck,
    failed_checks,
    summarize,
    validate_all,
)

__all__ = [
    "colocation_series",
    "figure1_series",
    "figure2_series",
    "figure3_series",
    "figure4_series",
    "render_colocation",
    "render_figure1",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "ReportConfig",
    "generate_report",
    "render_table",
    "render_table1",
    "ClaimCheck",
    "failed_checks",
    "summarize",
    "validate_all",
]
