"""The world a service builds, and the defaults it falls back on.

The service and the cluster are built from an :class:`ExperimentConfig`:
which service variant runs (MQ-JIT, MQ-GP, NP, or an idle CCP-only
baseline), the seed, the horizon, the network, and the two protocol
ablation flags.  Everything a user varies — query parameters, motion,
profile delivery, arrival times — travels per request (a
:class:`~repro.api.requests.QueryRequest`, or a request template of a
:class:`~repro.api.scenarios.ScenarioSpec`), so a run is described by a
scenario and only its world lands here (``ScenarioSpec.world``).

Defaults reproduce Section 6.1: 200 nodes in 450 m x 450 m, 100 ms active
window, ``Rc = 105`` m, ``Rs = 50`` m, 2 Mb/s; the request defaults add
``Rq = 150`` m, ``Tperiod = 2`` s, ``Tfresh = 1`` s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mobility.models import RandomDirectionConfig
from ..net.network import NetworkConfig

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

#: what a request that names no profile knob gets: the accurate full-path
#: profile; planner advance time ``Ta``; the predictor's GPS error bound
#: ``Δ`` and sampling period ``δ``
DEFAULT_PROFILE_MODE = PROFILE_FULL
DEFAULT_ADVANCE_TIME_S = 0.0
DEFAULT_GPS_ERROR_M = 0.0
DEFAULT_SAMPLING_PERIOD_S = 8.0

#: the paper's random-direction walk (3-5 m/s, 50 s legs), synthesised for
#: a request that carries neither a path nor a walk of its own
DEFAULT_WALK = RandomDirectionConfig()


def validate_world(mode: str, seed: int) -> None:
    """Reject a world no service can build, with one-line errors.

    Shared by :class:`ExperimentConfig` and :class:`~repro.api.scenarios.
    ScenarioSpec`, so a spec fails at load with the message the service
    would give.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated world: variant, seed, horizon, network, protocol."""

    mode: str = MODE_JIT
    seed: int = 1
    duration_s: float = 400.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: ablation flag — parent upgrades in the setup flood (DESIGN.md §4)
    parent_upgrade: bool = True
    #: ablation flag — PSM-style setup redelivery across beacon windows
    redeliver_setups: bool = True

    def __post_init__(self) -> None:
        validate_world(self.mode, self.seed)
