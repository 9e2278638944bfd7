"""Service-facing public API: the stable surface of the reproduction.

``repro.api`` is the primary entry point for everything the paper calls
"the query service".  One :class:`MobiQueryService` wraps a simulated
world (network + kernel + protocol); mobile users :meth:`~MobiQueryService
.submit` independent :class:`QueryRequest`\\ s — each with its own
attribute, aggregation, radius, period, freshness and start — and hold
:class:`SessionHandle`\\ s for streaming (:meth:`~SessionHandle.results`),
cancellation and scoring.  Admission control (:mod:`repro.api.admission`)
guards the shared medium; declarative scenarios (:mod:`repro.api.
scenarios`) package whole workloads as plain data runnable from the CLI
(``repro scenario <name>``).

Since PR 5 the surface is backend-agnostic: :class:`QueryBackend`
(:mod:`repro.api.backend`) names the five-verb protocol
(``submit``/``advance``/``cancel``/``stats``/``close``) that both
:class:`MobiQueryService` (one world) and
:class:`repro.cluster.ClusterService` (regional shards) implement —
``build_backend(spec)`` picks the plane a scenario asks for.

A run is described once, as a ``ScenarioSpec``: the paper's figure cells
(``repro.experiments``) are specs too, run by ``run_scenario`` like any
registry scenario.
"""

from .admission import (
    ADMISSION_POLICIES,
    AcceptAllPolicy,
    AdmissionDecision,
    AdmissionPolicy,
    PerAreaCapPolicy,
    PhaseAssignPolicy,
    make_admission_policy,
)
from .backend import BackendStats, QueryBackend
from .requests import PeriodOutcome, QueryRequest, validate_query_params
from .scenarios import (
    SCENARIOS,
    ScenarioResult,
    ScenarioSpec,
    build_backend,
    build_request_payloads,
    build_requests,
    build_service,
    get_scenario,
    list_scenarios,
    load_scenario_file,
    request_from_payload,
    run_scenario,
)
from .service import (
    AdmissionError,
    MobiQueryService,
    HorizonPassedError,
    ServiceClosedError,
    SessionHandle,
    STATUS_ADMITTED,
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_REJECTED,
)

__all__ = [
    # backend protocol
    "QueryBackend",
    "BackendStats",
    # service façade
    "MobiQueryService",
    "SessionHandle",
    "QueryRequest",
    "PeriodOutcome",
    "AdmissionError",
    "HorizonPassedError",
    "ServiceClosedError",
    "validate_query_params",
    "STATUS_REJECTED",
    "STATUS_ADMITTED",
    "STATUS_CANCELLED",
    "STATUS_COMPLETED",
    # admission
    "AdmissionPolicy",
    "AdmissionDecision",
    "AcceptAllPolicy",
    "PerAreaCapPolicy",
    "PhaseAssignPolicy",
    "ADMISSION_POLICIES",
    "make_admission_policy",
    # scenarios
    "ScenarioSpec",
    "ScenarioResult",
    "SCENARIOS",
    "get_scenario",
    "list_scenarios",
    "load_scenario_file",
    "build_requests",
    "build_request_payloads",
    "request_from_payload",
    "build_service",
    "build_backend",
    "run_scenario",
]
