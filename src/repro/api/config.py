"""Run configuration and its presets (paper Section 6.1 settings).

The service, the cluster and the scenario layer are all built from an
:class:`ExperimentConfig`, so it lives with them; the figure harness
imports it from here like everyone else.

Every figure's experiment is expressed as an :class:`ExperimentConfig`:
which service variant runs (MQ-JIT, MQ-GP, NP, or an idle CCP-only
baseline), how the user moves, how motion profiles reach the proxy, and the
network parameters.  Defaults reproduce Section 6.1: 200 nodes in
450 m x 450 m, 100 ms active window, ``Rq = 150`` m, ``Rc = 105`` m,
``Rs = 50`` m, ``Tperiod = 2`` s, ``Tfresh = 1`` s, 2 Mb/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..core.query import Aggregation
from ..mobility.models import RandomDirectionConfig
from ..net.network import NetworkConfig
from ..workload.arrivals import ARRIVAL_PROCESSES, ARRIVAL_STAGGERED
from .requests import ACCURACY_LEVELS, validate_query_params

#: service variants
MODE_JIT = "jit"
MODE_GREEDY = "greedy"
MODE_NP = "np"
MODE_IDLE = "idle"

#: motion-profile delivery modes
PROFILE_FULL = "full"
PROFILE_PLANNER = "planner"
PROFILE_PREDICTOR = "predictor"

_MODES = (MODE_JIT, MODE_GREEDY, MODE_NP, MODE_IDLE)
_PROFILE_MODES = (PROFILE_FULL, PROFILE_PLANNER, PROFILE_PREDICTOR)


@dataclass(frozen=True)
class QueryParams:
    """Query parameters shared by every user of a legacy experiment run.

    The experiment era had one frozen parameter set per run; the service
    API (:class:`repro.api.QueryRequest`) carries the same six-tuple *per
    request* instead, and this class survives as the homogeneous default
    the figure harness feeds through the adapter.
    """

    attribute: str = "temperature"
    aggregation: Aggregation = Aggregation.AVG
    radius_m: float = 150.0
    period_s: float = 2.0
    freshness_s: float = 1.0
    accuracy: str = "exact"

    def __post_init__(self) -> None:
        # Same one-line rejections as the service boundary.
        validate_query_params(self.radius_m, self.period_s, self.freshness_s)
        if self.accuracy not in ACCURACY_LEVELS:
            raise ValueError(
                f"accuracy must be one of {ACCURACY_LEVELS}, got {self.accuracy!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation run, fully specified."""

    mode: str = MODE_JIT
    seed: int = 1
    duration_s: float = 400.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    query: QueryParams = field(default_factory=QueryParams)
    mobility: RandomDirectionConfig = field(default_factory=RandomDirectionConfig)
    profile_mode: str = PROFILE_FULL
    #: planner advance time Ta (profile arrives Ta before each motion change)
    advance_time_s: float = 0.0
    #: GPS error bound Δ for the history predictor
    gps_error_m: float = 0.0
    #: history-predictor sampling period δ
    sampling_period_s: float = 8.0
    #: anycast delivery radius Rp
    pickup_radius_m: float = 30.0
    fidelity_threshold: float = 0.95
    #: ablation flag — parent upgrades in the setup flood (DESIGN.md §4)
    parent_upgrade: bool = True
    #: ablation flag — PSM-style setup redelivery across beacon windows
    redeliver_setups: bool = True
    #: concurrent mobile users sharing the network (1 = the paper's setting)
    num_users: int = 1
    #: how session starts are spread (see :mod:`repro.workload.arrivals`).
    #: Staggered by default, matching the CLI: simultaneous arrivals
    #: phase-lock every session's deadlines and cost 10-20 pp of success
    #: ratio at N=4 (report storms collide) — opt into ``simultaneous``
    #: only to study that contention regime.
    arrival_process: str = ARRIVAL_STAGGERED
    #: arrival spacing / window share / mean interarrival, per the process
    arrival_spacing_s: float = 2.5

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if self.profile_mode not in _PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {self.profile_mode!r}; "
                f"expected one of {_PROFILE_MODES}"
            )
        if self.duration_s < self.query.period_s:
            raise ValueError("duration must cover at least one query period")
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )
        if self.arrival_spacing_s < 0:
            raise ValueError("arrival spacing must be >= 0")
        if self.num_users > 1 and self.mode == MODE_IDLE:
            raise ValueError("idle runs have no users to multiply")

    # ------------------------------------------------------------------
    # Sweep helpers (each figure varies one axis)
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)

    def with_sleep_period(self, sleep_period_s: float) -> "ExperimentConfig":
        return replace(self, network=self.network.with_sleep_period(sleep_period_s))

    def with_advance_time(self, advance_time_s: float) -> "ExperimentConfig":
        return replace(
            self, profile_mode=PROFILE_PLANNER, advance_time_s=advance_time_s
        )

    def with_gps_error(self, gps_error_m: float) -> "ExperimentConfig":
        return replace(
            self, profile_mode=PROFILE_PREDICTOR, gps_error_m=gps_error_m
        )

    def with_num_users(
        self,
        num_users: int,
        arrival_process: Optional[str] = None,
        arrival_spacing_s: Optional[float] = None,
    ) -> "ExperimentConfig":
        """The multi-user scaling axis: same run, N concurrent users."""
        return replace(
            self,
            num_users=num_users,
            arrival_process=(
                arrival_process
                if arrival_process is not None
                else self.arrival_process
            ),
            arrival_spacing_s=(
                arrival_spacing_s
                if arrival_spacing_s is not None
                else self.arrival_spacing_s
            ),
        )


def paper_section62_config(
    mode: str = MODE_JIT,
    sleep_period_s: float = 9.0,
    speed_range: Tuple[float, float] = (3.0, 5.0),
    seed: int = 1,
    duration_s: float = 400.0,
) -> ExperimentConfig:
    """The Section 6.2 setting: accurate full-path profile, 50 s changes."""
    return ExperimentConfig(
        mode=mode,
        seed=seed,
        duration_s=duration_s,
        network=NetworkConfig(sleep_period_s=sleep_period_s),
        mobility=RandomDirectionConfig(
            speed_range=speed_range, change_interval_s=50.0
        ),
        profile_mode=PROFILE_FULL,
    )


def paper_section63_config(
    sleep_period_s: float = 9.0,
    change_interval_s: float = 70.0,
    advance_time_s: float = 0.0,
    gps_error_m: Optional[float] = None,
    seed: int = 1,
    duration_s: float = 500.0,
) -> ExperimentConfig:
    """The Section 6.3 setting: 70 s changes, profiles with advance time
    ``Ta`` (planner) or GPS-error prediction (predictor)."""
    base = ExperimentConfig(
        mode=MODE_JIT,
        seed=seed,
        duration_s=duration_s,
        network=NetworkConfig(sleep_period_s=sleep_period_s),
        mobility=RandomDirectionConfig(
            speed_range=(3.0, 5.0), change_interval_s=change_interval_s
        ),
    )
    if gps_error_m is not None:
        return base.with_gps_error(gps_error_m)
    return base.with_advance_time(advance_time_s)
