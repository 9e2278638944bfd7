"""MobiQuery reproduction: a spatiotemporal query service for mobile users
in wireless sensor networks (Lu, Xing, Chipara, Fok, Bhattacharya — ICDCS
2005), rebuilt on a from-scratch Python discrete-event simulator.

Quick tour of the public API (the service façade)::

    from repro import ExperimentConfig, MobiQueryService, QueryRequest, MODE_JIT

    service = MobiQueryService(ExperimentConfig(mode=MODE_JIT, seed=7,
                                                duration_s=120.0))
    handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
    for outcome in handle.results():      # streams per-period results
        print(outcome.k, outcome.on_time, outcome.value)
    print(handle.result().success_ratio)

The legacy experiment surface still works (and now routes through the
service)::

    from repro import run_experiment

    result = run_experiment(ExperimentConfig(mode=MODE_JIT, seed=7,
                                             duration_s=120.0))
    print(result.metrics.success_ratio())

Subpackages:

* ``repro.api`` — **the stable public surface**: ``MobiQueryService``
  (submit/stream/cancel sessions, heterogeneous per-user queries),
  admission control, and the declarative scenario registry.
* ``repro.sim`` — event kernel, RNG streams, tracing.
* ``repro.geometry`` — 2-D vectors, circles, the cell rule, spatial grid.
* ``repro.net`` — channel, CSMA/CA MAC, 802.11-PSM duty cycling, energy,
  sensor nodes, geographic routing, scoped flooding, synthetic fields.
* ``repro.power`` — CCP / SPAN / GAF backbone selection.
* ``repro.mobility`` — user paths, GPS error, motion profiles,
  planner/predictor providers.
* ``repro.core`` — the MobiQuery protocol (JIT + greedy prefetching, query
  trees, data collection, cancellation), the NP baseline, Section 5
  closed-form analysis, Section 6 metrics.
* ``repro.workload`` — what a multi-user run is made of besides the
  service: arrival processes, the per-user proxy endpoint, and the scored
  ``SessionResult`` / ``WorkloadResult``.
* ``repro.cluster`` — the sharded query plane: regional shard worlds, a
  geometry router and worker-process execution behind the same
  ``QueryBackend`` surface as the single service.
* ``repro.faults`` — the deterministic fault-injection plane: declarative
  ``FaultPlan`` schedules (crashes, blackouts, radio degradation, worker
  kills) executed off a dedicated RNG stream, plus the adversarial
  robustness sweep (``repro.faults.sweep``).
* ``repro.experiments`` — per-figure experiment harness.
"""

from .api import (
    AcceptAllPolicy,
    AdmissionDecision,
    AdmissionError,
    AdmissionPolicy,
    BackendStats,
    MobiQueryService,
    PerAreaCapPolicy,
    PeriodOutcome,
    PhaseAssignPolicy,
    QueryBackend,
    QueryRequest,
    ScenarioResult,
    ScenarioSpec,
    ServiceClosedError,
    SessionHandle,
    build_backend,
    get_scenario,
    list_scenarios,
    load_scenario_file,
    make_admission_policy,
    run_scenario,
    validate_query_params,
)
from .cluster import ClusterService
from .faults import FaultInjector, FaultPlan, load_fault_file
from .core import (
    AggregateState,
    Aggregation,
    AnalysisParams,
    MobiQueryConfig,
    MobiQueryGateway,
    MobiQueryProtocol,
    NoPrefetchGateway,
    NoPrefetchProtocol,
    QuerySpec,
    SessionMetrics,
    build_session_metrics,
    measure_power,
)
from .experiments import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
    RunResult,
    paper_section62_config,
    paper_section63_config,
    run_experiment,
    run_replications,
)
from .geometry import Circle, Rect, Vec2
from .mobility import (
    FullKnowledgeProvider,
    GpsModel,
    HistoryPredictorProvider,
    MotionProfile,
    PiecewisePath,
    PlannerProfileProvider,
    RandomDirectionConfig,
    random_direction_path,
)
from .net import NetworkConfig, build_network
from .power import AlwaysOnProtocol, CcpProtocol, GafProtocol, SpanProtocol
from .sim import RandomStreams, Simulator, Tracer
from .workload import (
    ARRIVAL_POISSON,
    ARRIVAL_SIMULTANEOUS,
    ARRIVAL_STAGGERED,
    ARRIVAL_UNIFORM,
    SessionResult,
    WorkloadResult,
    arrival_times,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api (the stable service surface)
    "QueryBackend",
    "BackendStats",
    "MobiQueryService",
    "ClusterService",
    "SessionHandle",
    "QueryRequest",
    "PeriodOutcome",
    "AdmissionError",
    "ServiceClosedError",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AcceptAllPolicy",
    "PerAreaCapPolicy",
    "PhaseAssignPolicy",
    "make_admission_policy",
    "validate_query_params",
    "ScenarioSpec",
    "ScenarioResult",
    "get_scenario",
    "list_scenarios",
    "load_scenario_file",
    "run_scenario",
    "build_backend",
    # faults (the deterministic fault-injection plane)
    "FaultPlan",
    "FaultInjector",
    "load_fault_file",
    # experiments
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "run_replications",
    "paper_section62_config",
    "paper_section63_config",
    "MODE_JIT",
    "MODE_GREEDY",
    "MODE_NP",
    "MODE_IDLE",
    # core
    "QuerySpec",
    "Aggregation",
    "AggregateState",
    "MobiQueryProtocol",
    "MobiQueryConfig",
    "MobiQueryGateway",
    "NoPrefetchProtocol",
    "NoPrefetchGateway",
    "SessionMetrics",
    "build_session_metrics",
    "measure_power",
    "AnalysisParams",
    # substrate
    "NetworkConfig",
    "build_network",
    "CcpProtocol",
    "SpanProtocol",
    "GafProtocol",
    "AlwaysOnProtocol",
    "Simulator",
    "RandomStreams",
    "Tracer",
    "Vec2",
    "Circle",
    "Rect",
    # mobility
    "PiecewisePath",
    "MotionProfile",
    "RandomDirectionConfig",
    "random_direction_path",
    "GpsModel",
    "FullKnowledgeProvider",
    "PlannerProfileProvider",
    "HistoryPredictorProvider",
    # workload
    "WorkloadResult",
    "SessionResult",
    "arrival_times",
    "ARRIVAL_SIMULTANEOUS",
    "ARRIVAL_STAGGERED",
    "ARRIVAL_UNIFORM",
    "ARRIVAL_POISSON",
]
