"""Compatibility re-export: the run configuration lives in :mod:`repro.api.config`."""

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

__all__ = [
    "MODE_GREEDY",
    "MODE_IDLE",
    "MODE_JIT",
    "MODE_NP",
    "PROFILE_FULL",
    "PROFILE_PLANNER",
    "PROFILE_PREDICTOR",
    "ExperimentConfig",
    "QueryParams",
    "paper_section62_config",
    "paper_section63_config",
]
