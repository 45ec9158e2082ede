"""Run aggregation and text rendering for the benchmark harness."""

from repro.analysis.report import render_bars, render_table
from repro.analysis.stats import BootSeries, Stats, run_boots
from repro.analysis.timeline_render import render_step_ranking, render_timeline

__all__ = [
    "BootSeries",
    "Stats",
    "render_bars",
    "render_step_ranking",
    "render_table",
    "render_timeline",
    "run_boots",
]
