"""Experiment harness: figure presets, replications, per-figure sweeps."""

from ..api.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    PROFILE_FULL,
    PROFILE_PLANNER,
    PROFILE_PREDICTOR,
    ExperimentConfig,
)
from .figures import (
    bench_scale,
    contention_analysis_table,
    figure_cells,
    paper_section62_config,
    paper_section63_config,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_warmup_comparison,
    storage_analysis_table,
)
from .reporting import format_series, format_table
from .runner import mean_success_ratio, run_replications
from .viz import render_fidelity_strip, render_field

__all__ = [
    "ExperimentConfig",
    "paper_section62_config",
    "paper_section63_config",
    "figure_cells",
    "MODE_JIT",
    "MODE_GREEDY",
    "MODE_NP",
    "MODE_IDLE",
    "PROFILE_FULL",
    "PROFILE_PLANNER",
    "PROFILE_PREDICTOR",
    "run_replications",
    "mean_success_ratio",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "storage_analysis_table",
    "contention_analysis_table",
    "run_warmup_comparison",
    "bench_scale",
    "format_table",
    "format_series",
    "render_field",
    "render_fidelity_strip",
]
