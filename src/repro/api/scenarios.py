"""Declarative scenarios: named, JSON-loadable service workloads.

A :class:`ScenarioSpec` is a plain-data description of one run — world
(mode/seed/duration/network and the protocol's two ablation flags),
admission policy, and a list of request templates — that round-trips
through ``dict``/JSON, so workloads and paper figure cells alike can live
in version control, ship in bug reports, and run from the CLI:

    repro scenario heterogeneous-mix
    repro scenario --file my_workload.json

It is the repo's one run description: :func:`run_scenario` runs it and
returns the one result type, :class:`ScenarioResult`.

Request templates are dicts mirroring :class:`~repro.api.requests.
QueryRequest` (aggregations by name), plus three expansion keys:
``count`` clones a template N times, ``arrival`` picks how the clones'
starts are spread (``staggered`` — the default — ``simultaneous``,
``uniform`` or ``poisson``; see :mod:`repro.workload.arrivals`) and
``spacing_s`` is that process's spacing.  The stochastic processes draw
from the seed's ``arrivals`` stream.  A ``path`` dict sets the user's
motion: ``{"kind": "patrol", "waypoints": [[x, y], ...], "speed": 4.0,
"loops": 4}`` is a deterministic beat; ``{"kind": "random",
"speed_range": [lo, hi], "change_interval_s": s}`` — or no path at all,
for the paper's 3-5 m/s and 50 s legs — is a random-direction walk the
service synthesises from the user's own mobility stream.

Seven scenarios are built in: ``paper-default`` (the Section 6.1 single
user), ``patrol-fleet`` (6 robots on rectangular beats), ``rush-hour-
burst`` (a simultaneous 12-user burst tamed by server-side phase
assignment), ``heterogeneous-mix`` (8 users with mixed periods, radii,
aggregations and freshness bounds — the ROADMAP's heterogeneous-workload
item), ``blackout-recovery-16users`` (16 users riding out a region
blackout — the fault drill), ``uav-survey`` (4 fast UAVs under coarse
accuracy — the accuracy/energy frontier) and ``cluster_scale_64users``
(64 users on 4 regional shards — the scale-out scenario pinned in
``tests/data/pins.json``).

A spec is checked once, when it is built: it builds its world, its
admission policy, its fault plan and each template's request, so a bad
value fails at load with the message of the code that builds it.

A spec may also ask for the sharded backend: ``shards: 4`` partitions
the field into regional worlds (``partitioner`` picks the scheme) and
``workers: 4`` runs the batch path across worker processes; ``shards:
1`` — the default — is the classic single world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from ..core.metrics import PowerReport, measure_power
from ..core.query import Aggregation
from ..faults.plan import FaultPlan, reject_unknown_keys
from ..geometry.vec import Vec2
from ..mobility.models import RandomDirectionConfig, patrol_path
from ..net.network import NetworkConfig
from ..sim.rng import RandomStreams
from ..workload.arrivals import (
    ARRIVAL_POISSON,
    ARRIVAL_STAGGERED,
    ARRIVAL_UNIFORM,
    arrival_times,
    check_arrivals,
)
from ..workload.engine import WorkloadResult
from .admission import AdmissionPolicy, make_admission_policy
from .backend import QueryBackend
from .config import DEFAULT_WALK, MODE_IDLE, ExperimentConfig, check_accuracy_served
from .requests import QueryRequest
from .service import MobiQueryService, SessionHandle

#: template keys that expand one template into several requests
_CLONE_KEYS = ("count", "spacing_s", "arrival")

#: every key a request template may carry: the QueryRequest fields plain
#: data can set (a path as its dict; no walk or provider object) and the
#: clone keys
_REQUEST_KEYS = (
    frozenset(f.name for f in dataclass_fields(QueryRequest)) - {"walk", "provider"}
) | set(_CLONE_KEYS)

#: every key one *expanded* request payload may carry (no clone keys)
_PAYLOAD_KEYS = _REQUEST_KEYS - set(_CLONE_KEYS)

#: every key of a path dict, per kind (a patrol also needs its waypoints)
_PATH_KEYS = {
    "random": frozenset({"kind", "speed_range", "change_interval_s"}),
    "patrol": frozenset({"kind", "waypoints", "speed", "loops"}),
}

#: every key the ``network`` override dict may carry: the NetworkConfig
#: fields a JSON number sets and the world honours (``region`` is an object,
#: and the service draws its own ``psm_offset_s``)
_NETWORK_KEYS = frozenset({
    "n_nodes", "comm_range_m", "sensing_range_m", "bitrate_bps",
    "sleep_period_s", "active_window_s", "sensor_noise_std",
})

#: spec fields that hold a nested dict (copied on the way in and out)
_DICT_FIELDS = ("network", "admission", "faults")

#: the protocol's ablation flags (True = the full protocol)
_ABLATION_FLAGS = ("parent_upgrade", "redeliver_setups")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload, fully described by plain data."""

    name: str
    description: str = ""
    mode: str = "jit"
    seed: int = 1
    duration_s: float = 120.0
    #: NetworkConfig field overrides (e.g. {"sleep_period_s": 9.0}; the
    #: keys are ``_NETWORK_KEYS``)
    network: Dict = field(default_factory=dict)
    #: admission policy dict (see :func:`make_admission_policy`)
    admission: Dict = field(default_factory=dict)
    #: request templates (see module docstring)
    requests: Tuple[Dict, ...] = ()
    #: declarative fault plan (see :class:`~repro.faults.plan.FaultPlan`);
    #: an empty dict — the default — injects nothing and is bit-identical
    #: to a pre-fault-plane run
    faults: Dict = field(default_factory=dict)
    #: regional shards (1 = one world, the classic MobiQueryService)
    shards: int = 1
    #: worker processes for the cluster batch path (0 = in-process)
    workers: int = 0
    #: spatial partitioner registry name (see repro.cluster.PARTITIONERS)
    partitioner: str = "balanced-kd"
    #: ablation flag — parent upgrades in the setup flood (DESIGN.md §4)
    parent_upgrade: bool = True
    #: ablation flag — PSM-style setup redelivery across beacon windows
    redeliver_setups: bool = True
    # -- declarative serve-daemon posture (ROADMAP item 2) ------------
    # CLI flags still override: a flag given on ``repro serve`` beats
    # the spec; the spec beats the built-in defaults.
    #: edge admission: sustained sessions/s (0 = edge disabled)
    edge_rate: float = 0.0
    #: edge admission: token-bucket burst depth (0 = edge disabled)
    edge_burst: float = 0.0
    #: edge admission: concurrent live-session cap (0 = unlimited)
    max_live_sessions: int = 0
    #: WAL group-commit: flush every N records (1 = every record)
    wal_flush: int = 8

    def __post_init__(self) -> None:
        """Check the spec once, at load, by building what is cheap to
        build: the world, the admission policy, the fault plan and every
        template's request.  Each value is refused with the message of
        the code that builds it."""
        if not self.name:
            raise ValueError("a scenario needs a name")
        # Every template keeps at least one serviceable period: the one
        # horizon rule expansion relies on when it clamps a late start.
        longest = max(
            (float(t.get("period_s", QueryRequest.period_s)) for t in self.requests),
            default=0.0,
        )
        if self.duration_s < longest:
            raise ValueError("duration must cover at least one query period")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration_s:g}")
        reject_unknown_keys(self.network, _NETWORK_KEYS, "network")
        self.world()
        if self.mode == MODE_IDLE and self.requests:
            raise ValueError("idle runs have no users to multiply")
        for knob, value in (
            ("shards", self.shards),
            ("workers", self.workers),
            ("max_live_sessions", self.max_live_sessions),
            ("wal_flush", self.wal_flush),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{knob} must be an integer, got {value!r}"
                )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        for knob, value in (
            ("edge_rate", self.edge_rate),
            ("edge_burst", self.edge_burst),
        ):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{knob} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{knob} must be >= 0, got {value:g}")
        if self.max_live_sessions < 0:
            raise ValueError(
                f"max_live_sessions must be >= 0, got {self.max_live_sessions}"
            )
        if self.wal_flush < 1:
            raise ValueError(f"wal_flush must be >= 1, got {self.wal_flush}")
        for knob in _ABLATION_FLAGS:
            value = getattr(self, knob)
            if not isinstance(value, bool):
                raise ValueError(f"{knob} must be true or false, got {value!r}")
        from ..cluster.partition import make_partitioner  # lazy: avoid cycle

        make_partitioner(self.partitioner)
        # Strict template validation: a typo'd key or a bad value fails at
        # load time with one clear sentence, not deep in request expansion.
        for template in self.requests:
            reject_unknown_keys(template, _REQUEST_KEYS, "request-template")
            check_arrivals(
                template.get("count", 1),
                template.get("arrival", ARRIVAL_STAGGERED),
                template.get("spacing_s", 0.0),
            )
            request = request_from_payload(
                {k: v for k, v in template.items() if k not in _CLONE_KEYS}
            )
            check_accuracy_served(self.mode, request.accuracy)
        make_admission_policy(self.admission)
        # Same strictness for the fault plan: FaultPlan.from_dict names the
        # first unknown key at every nesting level.
        FaultPlan.from_dict(self.faults)

    @staticmethod
    def from_dict(data: Dict) -> "ScenarioSpec":
        """Build a spec from its plain-dict form (inverse of :meth:`to_dict`)."""
        reject_unknown_keys(data, _SPEC_KEYS, "scenario")
        payload = dict(data)
        payload["requests"] = tuple(dict(r) for r in payload.get("requests", ()))
        for key in _DICT_FIELDS:
            payload[key] = dict(payload.get(key, {}))
        return ScenarioSpec(**payload)

    def to_dict(self) -> Dict:
        """The JSON-ready plain-dict form.

        An ablation flag is written only when it ablates (False), so a
        full-protocol spec — and every report and log that embeds one —
        reads the same whether or not its reader knows the flags.
        """
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        payload["requests"] = [dict(r) for r in self.requests]
        for key in _DICT_FIELDS:
            payload[key] = dict(payload[key])
        for flag in _ABLATION_FLAGS:
            if payload[flag]:
                del payload[flag]
        return payload

    def with_overrides(
        self,
        duration_s: Optional[float] = None,
        seed: Optional[int] = None,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        faults: Optional[Dict] = None,
    ) -> "ScenarioSpec":
        """The same scenario at a different scale, seed or shard layout."""
        payload = self.to_dict()
        if duration_s is not None:
            payload["duration_s"] = duration_s
        if seed is not None:
            payload["seed"] = seed
        if shards is not None:
            payload["shards"] = shards
        if workers is not None:
            payload["workers"] = workers
        if faults is not None:
            payload["faults"] = faults
        return ScenarioSpec.from_dict(payload)

    def with_accuracy(self, accuracy: str) -> "ScenarioSpec":
        """The same workload with every request at ``accuracy``.

        This is how a scenario's exact twin is built (and how the CLI's
        ``--accuracy`` / the sweep's ``--accuracies`` axis rewrite a
        cell): only the ``accuracy`` key of each template changes, so
        paths, seeds and arrival phases stay identical; an unknown level
        is refused by the request each template builds.
        """
        payload = self.to_dict()
        for template in payload["requests"]:
            template["accuracy"] = accuracy
        return ScenarioSpec.from_dict(payload)

    def fault_plan(self) -> FaultPlan:
        """The validated :class:`FaultPlan` this scenario injects."""
        return FaultPlan.from_dict(self.faults)

    def world(self) -> ExperimentConfig:
        """The world a backend builds for this scenario (every shard's
        base): the one place a spec becomes an :class:`ExperimentConfig`."""
        return ExperimentConfig(
            mode=self.mode,
            seed=self.seed,
            duration_s=self.duration_s,
            network=NetworkConfig(**self.network),
            parent_upgrade=self.parent_upgrade,
            redeliver_setups=self.redeliver_setups,
        )


#: every key a scenario dict may carry: the spec's own fields
_SPEC_KEYS = frozenset(f.name for f in dataclass_fields(ScenarioSpec))


def load_scenario_file(path: str) -> ScenarioSpec:
    """Load a scenario from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioSpec.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Template expansion
# ----------------------------------------------------------------------
def _check_path(path_spec: Dict) -> str:
    """A path dict's kind, once its keys are known good.

    Each kind refuses a key it does not read and names a missing one, so a
    typo'd walk cannot run silently at the defaults.
    """
    if not isinstance(path_spec, dict):
        raise ValueError(f"a path must be an object, got {path_spec!r}")
    kind = path_spec.get("kind", "random")
    known = _PATH_KEYS.get(kind)
    if known is None:
        raise ValueError(
            f"unknown path kind {kind!r}; expected 'random' or 'patrol'"
        )
    if not path_spec.keys() <= known:
        reject_unknown_keys(path_spec, known, f"{kind} path")
    if kind == "patrol" and "waypoints" not in path_spec:
        raise ValueError("a patrol path needs 'waypoints'")
    return kind


def _build_path(path_spec: Dict, kwargs: Dict) -> None:
    """Set ``kwargs``' ``path`` (a patrol) or ``walk`` (a random walk with
    keys of its own; the bare kind leaves the paper's walk to the service)."""
    if _check_path(path_spec) == "patrol":
        waypoints = [Vec2(float(x), float(y)) for x, y in path_spec["waypoints"]]
        kwargs["path"] = patrol_path(
            waypoints,
            speed=float(path_spec.get("speed", 4.0)),
            start_time=0.0,
            loops=int(path_spec.get("loops", 1)),
        )
    elif len(path_spec) > ("kind" in path_spec):
        lo, hi = path_spec.get("speed_range", DEFAULT_WALK.speed_range)
        kwargs["walk"] = RandomDirectionConfig(
            speed_range=(float(lo), float(hi)),
            change_interval_s=float(
                path_spec.get("change_interval_s", DEFAULT_WALK.change_interval_s)
            ),
        )


def request_from_payload(payload: Dict) -> QueryRequest:
    """One concrete :class:`QueryRequest` from its JSON-able dict form.

    The payload is a request template *after* expansion (no ``count`` /
    ``spacing_s`` / ``arrival``): ``aggregation`` may be a name string,
    ``path`` a path dict (a patrol sets ``QueryRequest.path``, a random
    walk with keys of its own ``QueryRequest.walk``); every other key maps
    straight to a :class:`QueryRequest` field.  Shared by
    :func:`build_requests` and the serve daemon's wire codec, so an over-the-wire submission builds
    exactly the request the in-process expansion would.
    """
    reject_unknown_keys(payload, _PAYLOAD_KEYS, "request-payload")
    kwargs = dict(payload)
    aggregation = kwargs.get("aggregation")
    if aggregation is None:
        kwargs.pop("aggregation", None)
    elif not isinstance(aggregation, Aggregation):
        kwargs["aggregation"] = Aggregation(str(aggregation).lower())
    path_spec = kwargs.pop("path", None)
    if path_spec is not None:
        _build_path(path_spec, kwargs)
    return QueryRequest(**kwargs)


def build_request_payloads(spec: ScenarioSpec) -> List[Dict]:
    """Expand the templates into JSON-able per-user request payloads.

    The same expansion :func:`build_requests` performs — ``count``
    cloning, starts offset by the template's ``arrival`` process, start
    clamping so a scaled-down scenario keeps one serviceable period per
    user — but stopping at plain data: one payload dict per user, in
    template order.  This is what ``repro slam`` replays over the wire
    against a live daemon.

    ``uniform`` and ``poisson`` draw from a fresh ``arrivals`` stream of
    the spec's seed, shared by the templates in order; streams are keyed
    by name, so a world built from the same seed never sees the draws.
    """
    payloads: List[Dict] = []
    arrivals = None
    for template in spec.requests:
        process = template.get("arrival", ARRIVAL_STAGGERED)
        if process in (ARRIVAL_UNIFORM, ARRIVAL_POISSON) and arrivals is None:
            arrivals = RandomStreams(spec.seed).stream("arrivals")
        offsets = arrival_times(
            template.get("count", 1),
            process=process,
            spacing_s=float(template.get("spacing_s", 0.0)),
            rng=arrivals,
        )
        base = {k: v for k, v in template.items() if k not in _CLONE_KEYS}
        period = float(base.get("period_s", QueryRequest.period_s))
        latest_start = spec.duration_s - period
        for offset in offsets:
            payload = dict(base)
            start = float(base.get("start_s", 0.0)) + offset
            payload["start_s"] = min(start, max(0.0, latest_start))
            payloads.append(payload)
    return payloads


def build_requests(spec: ScenarioSpec) -> List[QueryRequest]:
    """Expand a scenario's request templates into concrete requests.

    Scaling a scenario down (``with_overrides``) clamps each request's
    start so every user keeps at least one serviceable period — quick CLI
    runs of a long scenario stay valid instead of erroring out.
    """
    return [request_from_payload(p) for p in build_request_payloads(spec)]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """One run: per-user scores plus service-level counters — the one
    result type every figure, CLI command and benchmark reads."""

    scenario: ScenarioSpec
    workload: WorkloadResult
    #: every handle issued, in submission order.  They reach the live
    #: world; a result shipped between processes leaves them behind
    #: (``replace(result, handles=[])``) and keeps the counts below.
    handles: List[SessionHandle]
    events_executed: int
    frames_sent: int
    frames_collided: int
    frames_delivered: int
    backbone_size: int
    admitted: int
    rejected: int
    #: independent worlds that served the run (1 = single service)
    shards: int = 1
    #: the radios' mean draw per node class; one-world runs only
    power: Optional[PowerReport] = None

    @property
    def mean_success(self) -> float:
        return self.workload.mean_success_ratio()

    @property
    def min_success(self) -> float:
        return self.workload.min_success_ratio()


def build_service(
    spec: ScenarioSpec, admission: Optional[AdmissionPolicy] = None
) -> MobiQueryService:
    """The single-world service for a scenario (ignores ``shards``).

    ``admission`` overrides the spec's configured policy — the replay
    path installs a :class:`~repro.cluster.transport.ReplayAdmissionPolicy`
    here to reproduce a recorded run's verdicts verbatim.
    """
    return MobiQueryService(
        spec.world(),
        admission=(
            admission
            if admission is not None
            else make_admission_policy(spec.admission)
        ),
        faults=spec.fault_plan(),
    )


def build_backend(
    spec: ScenarioSpec, admission: Optional[AdmissionPolicy] = None
) -> QueryBackend:
    """The backend a scenario asks for: one world, or a regional cluster.

    ``shards: 1`` (the default) builds the classic single-world
    :class:`MobiQueryService` — ``workers``/``partitioner`` only apply to
    a cluster and are ignored for one world; ``shards >= 2`` builds a
    :class:`~repro.cluster.service.ClusterService` with the spec's
    partitioner and worker count.  Either way the caller only sees the
    :class:`QueryBackend` surface.  ``admission`` overrides the spec's
    configured policy (see :func:`build_service`).
    """
    if spec.shards <= 1:
        return build_service(spec, admission=admission)
    from ..cluster.service import ClusterService  # lazy: avoid cycle

    return ClusterService(
        spec.world(),
        shards=spec.shards,
        admission=(
            admission
            if admission is not None
            else make_admission_policy(spec.admission)
        ),
        partitioner=spec.partitioner,
        workers=spec.workers,
        faults=spec.fault_plan(),
    )


def run_scenario(
    spec: ScenarioSpec,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    backend: Optional[QueryBackend] = None,
    accuracy: Optional[str] = None,
) -> ScenarioResult:
    """Run one scenario end to end and score every admitted session.

    ``backend`` injects a pre-built backend (the cluster benchmarks use
    this to time an explicit ``ClusterService(shards=1)`` against the
    default single-world path; the Section 5 readers subscribe to a
    service's tracer before handing it over); otherwise one is built from
    the spec.  ``accuracy`` rewrites every request template (``repro
    scenario --accuracy`` — how a scenario's exact twin runs).  A
    one-world run also reads every radio's meter into ``power``.
    """
    spec = spec.with_overrides(
        duration_s=duration_s, seed=seed, shards=shards, workers=workers
    )
    if accuracy is not None:
        spec = spec.with_accuracy(accuracy)
    if backend is None:
        backend = build_backend(spec)
    handles = [backend.submit(request) for request in build_requests(spec)]
    workload = backend.close()
    stats = backend.stats()
    return ScenarioResult(
        scenario=spec,
        workload=workload,
        handles=handles,
        events_executed=stats.events_executed,
        frames_sent=stats.frames_sent,
        frames_collided=stats.frames_collided,
        frames_delivered=stats.frames_delivered,
        backbone_size=stats.backbone_size,
        admitted=sum(1 for h in handles if h.accepted),
        rejected=sum(1 for h in handles if not h.accepted),
        shards=stats.shards,
        power=(
            measure_power(backend.network)
            if isinstance(backend, MobiQueryService)
            else None
        ),
    )


# ----------------------------------------------------------------------
# The built-in registry
# ----------------------------------------------------------------------
def _patrol_beat(index: int) -> List[List[float]]:
    """Rectangular beats tiling the field, one per robot (wrap after 6)."""
    col, row = index % 3, (index // 3) % 2
    x0, y0 = 40.0 + col * 130.0, 50.0 + row * 190.0
    w, h = 110.0, 150.0
    return [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h], [x0, y0]]


def _uav_sweep(index: int) -> List[List[float]]:
    """Lawnmower sweep over one horizontal strip of the field, per UAV.

    Each of the 4 UAVs owns a 112.5 m strip and mows it in two long
    passes — the fast, ground-covering motion where per-period tree
    placement pays full price for areas the vehicle has already left.
    """
    y0 = 30.0 + (index % 4) * 112.5
    return [
        [25.0, y0],
        [425.0, y0],
        [425.0, y0 + 55.0],
        [25.0, y0 + 55.0],
    ]


_HETERO_REQUESTS = (
    # A deliberate mix: periods 1.5-4 s, radii 40-120 m, four aggregation
    # functions, freshness at or below each period — per-user parameters
    # side by side on one world.
    {"period_s": 2.0, "radius_m": 60.0, "freshness_s": 1.0, "aggregation": "avg", "start_s": 0.0},
    {"period_s": 1.5, "radius_m": 40.0, "freshness_s": 0.75, "aggregation": "max", "start_s": 2.5},
    {"period_s": 3.0, "radius_m": 90.0, "freshness_s": 1.5, "aggregation": "min", "start_s": 5.0},
    {"period_s": 2.0, "radius_m": 75.0, "freshness_s": 0.8, "aggregation": "count", "start_s": 7.5},
    {"period_s": 4.0, "radius_m": 120.0, "freshness_s": 2.0, "aggregation": "avg", "start_s": 10.0},
    {"period_s": 1.5, "radius_m": 50.0, "freshness_s": 1.0, "aggregation": "avg", "start_s": 12.5},
    {"period_s": 2.5, "radius_m": 60.0, "freshness_s": 1.2, "aggregation": "sum", "start_s": 15.0},
    {"period_s": 3.0, "radius_m": 100.0, "freshness_s": 1.0, "aggregation": "max", "start_s": 17.5},
)

#: the built-in scenario registry (name -> plain-dict spec)
SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="paper-default",
            description=(
                "The paper's Section 6.1 setting: one user, Rq=150 m, "
                "Tperiod=2 s, Tfresh=1 s, JIT prefetching."
            ),
            mode="jit",
            seed=1,
            duration_s=120.0,
            requests=(
                {"radius_m": 150.0, "period_s": 2.0, "freshness_s": 1.0},
            ),
        ),
        ScenarioSpec(
            name="patrol-fleet",
            description=(
                "6 patrol robots on rectangular beats sharing one backbone, "
                "dispatched one every 2.5 s (the workload-engine example, "
                "declaratively)."
            ),
            mode="jit",
            seed=11,
            duration_s=90.0,
            requests=tuple(
                {
                    "attribute": "hazard",
                    "radius_m": 60.0,
                    "period_s": 2.0,
                    "freshness_s": 1.0,
                    "start_s": robot * 2.5,
                    "path": {
                        "kind": "patrol",
                        "waypoints": _patrol_beat(robot),
                        "speed": 4.0,
                        "loops": 4,
                    },
                }
                for robot in range(6)
            ),
        ),
        ScenarioSpec(
            name="rush-hour-burst",
            description=(
                "12 users all arriving at once — the phase-locking worst "
                "case — with server-side phase assignment spreading their "
                "deadlines across 4 slots."
            ),
            mode="jit",
            seed=3,
            duration_s=120.0,
            admission={"policy": "phase-assign", "slots": 4},
            requests=(
                {
                    "radius_m": 60.0,
                    "period_s": 2.0,
                    "freshness_s": 1.0,
                    "count": 12,
                    "spacing_s": 0.0,
                },
            ),
        ),
        ScenarioSpec(
            name="heterogeneous-mix",
            description=(
                "8 users with mixed periods (1.5-4 s), radii (40-120 m), "
                "aggregations (avg/min/max/sum/count) and freshness bounds "
                "on one shared network — the heterogeneous workload the "
                "per-request API exists for."
            ),
            mode="jit",
            seed=5,
            duration_s=120.0,
            requests=_HETERO_REQUESTS,
        ),
        ScenarioSpec(
            name="blackout-recovery-16users",
            description=(
                "16 users ride out a 20 s region blackout at the field "
                "centre plus a transient radio-degradation window: the "
                "self-healing protocol re-elects crashed collectors, marks "
                "the unrecoverable periods degraded, and post-recovery "
                "success returns to the no-fault level (the benchmarks "
                "gate it within 5 pp)."
            ),
            mode="jit",
            seed=7,
            duration_s=90.0,
            faults={
                "blackouts": [
                    {
                        "x": 225.0,
                        "y": 225.0,
                        "radius_m": 100.0,
                        "at_s": 30.0,
                        "duration_s": 20.0,
                    }
                ],
                "degradations": [
                    {"at_s": 35.0, "duration_s": 5.0, "corruption_prob": 0.3}
                ],
            },
            requests=(
                {
                    "radius_m": 60.0,
                    "period_s": 2.5,
                    "freshness_s": 1.25,
                    "count": 16,
                    "spacing_s": 1.5,
                },
            ),
        ),
        ScenarioSpec(
            name="uav-survey",
            description=(
                "4 survey UAVs mow the field in fast lawnmower sweeps "
                "(12 m/s) under coarse accuracy: each period is answered "
                "from the multiresolution summary plane instead of "
                "placing collection trees the vehicle outruns — the "
                "accuracy/energy frontier scenario (run --accuracy exact "
                "for the exact twin)."
            ),
            mode="jit",
            seed=17,
            duration_s=60.0,
            # Summaries refresh on the beacon cycle; a 3 s duty cycle
            # keeps cached readings inside the sessions' freshness bound.
            network={"sleep_period_s": 3.0},
            requests=tuple(
                {
                    "attribute": "temperature",
                    "aggregation": "avg",
                    "radius_m": 70.0,
                    "period_s": 3.0,
                    "freshness_s": 3.0,
                    "start_s": uav * 1.5,
                    "accuracy": "coarse",
                    "path": {
                        "kind": "patrol",
                        "waypoints": _uav_sweep(uav),
                        "speed": 12.0,
                        "loops": 2,
                    },
                }
                for uav in range(4)
            ),
        ),
        ScenarioSpec(
            name="cluster_scale_64users",
            description=(
                "64 users spread over 4 regional shards (balanced-kd, "
                "worker processes when the machine has cores) — the "
                "scale-out scenario; run with --shards 1 to time the "
                "same fleet on one world."
            ),
            mode="jit",
            seed=1,
            duration_s=60.0,
            shards=4,
            workers=4,
            requests=(
                {
                    "radius_m": 60.0,
                    "period_s": 2.0,
                    "freshness_s": 1.0,
                    "count": 64,
                    "spacing_s": 0.875,
                },
            ),
        ),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario; raise with the catalogue on miss."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return spec


def list_scenarios() -> List[ScenarioSpec]:
    """All built-in scenarios in name order."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]
