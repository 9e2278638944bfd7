"""Experiment harness: configs, runner, per-figure reproductions."""

from ..api.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    PROFILE_FULL,
    PROFILE_PLANNER,
    PROFILE_PREDICTOR,
    ExperimentConfig,
    QueryParams,
    paper_section62_config,
    paper_section63_config,
)
from .figures import (
    bench_scale,
    contention_analysis_table,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_warmup_comparison,
    storage_analysis_table,
)
from .reporting import format_series, format_table
from .runner import (
    PROXY_NODE_ID,
    RunResult,
    mean_success_ratio,
    run_experiment,
    run_replications,
)
from .viz import render_fidelity_strip, render_field

__all__ = [
    "ExperimentConfig",
    "QueryParams",
    "paper_section62_config",
    "paper_section63_config",
    "MODE_JIT",
    "MODE_GREEDY",
    "MODE_NP",
    "MODE_IDLE",
    "PROFILE_FULL",
    "PROFILE_PLANNER",
    "PROFILE_PREDICTOR",
    "RunResult",
    "run_experiment",
    "run_replications",
    "mean_success_ratio",
    "PROXY_NODE_ID",
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
