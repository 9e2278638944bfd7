"""The adversarial robustness sweep (``repro sweep``).

Fans one base :class:`~repro.api.scenarios.ScenarioSpec` across axis
ranges — fleet size x shard count x fault intensity x arrival process x
answer accuracy x node density x radio range — through the cluster
transport's process pool, and checks the *metamorphic invariants* on
the grid:

* **fault-monotonicity** — mean success never *improves* as fault
  intensity rises (within a 1 pp tolerance for tie-break noise), holding
  the other axes fixed.  Faults draw from their own RNG stream, so the
  underlying world is identical across intensities; a success ratio that
  goes *up* under heavier faults means the recovery machinery perturbed
  the fault-free path.
* **density-monotonicity** — at a fixed radio range, mean success never
  improves as node density rises: more radios in the same field can
  only add channel contention.
* **shards1-identity** — a ``shards=1`` cluster is bit-identical to the
  single-world service *with the same fault plan injected*.
* **churn-no-leak** — interleaved cancel + fault churn leaves zero
  residual protocol state: no tree states, collector chains, live flood
  dedup entries, sessions not torn down, pending session starts, or future
  PSM wake overrides, and the kernel's pending-event census stops shrinking
  only at the steady PSM floor (no session callback keeps rescheduling).

A violated invariant is a loud failure: the CLI exits non-zero naming
the invariant.  Results are written as ``SWEEP_<name>.json`` plus a
markdown table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.requests import ACCURACY_LEVELS
from ..api.scenarios import ScenarioSpec, build_requests
from ..api.service import RUN_TAIL_S
from .plan import FaultPlan, reject_unknown_keys

#: tolerance for the monotonicity invariant (success is a ratio in [0,1])
MONOTONICITY_TOLERANCE = 0.01

#: the arrival-process axis values
ARRIVAL_STAGGERED = "staggered"
ARRIVAL_BURST = "burst"
_ARRIVALS = (ARRIVAL_STAGGERED, ARRIVAL_BURST)

#: the admission-policy axis values (names -> scenario admission configs)
ADMISSION_ACCEPT_ALL = "accept-all"
_ADMISSION_CONFIGS: Dict[str, Dict] = {
    ADMISSION_ACCEPT_ALL: {},
    "per-area-cap": {"policy": "per-area-cap", "max_overlapping": 3},
    "phase-assign": {"policy": "phase-assign", "slots": 4},
}

_AXES_KEYS = frozenset(
    {"users", "shards", "intensities", "arrivals", "admissions",
     "accuracies", "densities", "radio_ranges"}
)

#: sentinel axis values meaning "keep the base scenario's network config"
DENSITY_BASE = 0
RADIO_RANGE_BASE = 0.0


@dataclass(frozen=True)
class SweepAxes:
    """The sweep grid: every combination of these values runs as one cell."""

    users: Tuple[int, ...] = (4, 8)
    shards: Tuple[int, ...] = (1, 2)
    intensities: Tuple[float, ...] = (0.0, 0.5, 1.0)
    arrivals: Tuple[str, ...] = (ARRIVAL_STAGGERED, ARRIVAL_BURST)
    admissions: Tuple[str, ...] = (ADMISSION_ACCEPT_ALL,)
    accuracies: Tuple[str, ...] = ("exact",)
    densities: Tuple[int, ...] = (DENSITY_BASE,)
    radio_ranges: Tuple[float, ...] = (RADIO_RANGE_BASE,)

    def __post_init__(self) -> None:
        for axis in ("users", "shards", "intensities", "arrivals",
                     "admissions", "accuracies", "densities",
                     "radio_ranges"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must not be empty")
        for n in self.users:
            if n < 1:
                raise ValueError(f"sweep users must be >= 1, got {n}")
        for n in self.shards:
            if n < 1:
                raise ValueError(f"sweep shards must be >= 1, got {n}")
        for accuracy in self.accuracies:
            if accuracy not in ACCURACY_LEVELS:
                raise ValueError(
                    f"unknown sweep accuracy {accuracy!r}; expected one of "
                    f"{list(ACCURACY_LEVELS)}"
                )
        for density in self.densities:
            # DENSITY_BASE (0) keeps the base scenario's node count.
            if density < 0:
                raise ValueError(
                    f"sweep density must be >= 0, got {density}"
                )
        for radio_range in self.radio_ranges:
            # RADIO_RANGE_BASE (0) keeps the base comm range.
            if radio_range < 0:
                raise ValueError(
                    f"sweep radio range must be >= 0, got {radio_range}"
                )
        for intensity in self.intensities:
            if not 0.0 <= intensity <= 1.0:
                raise ValueError(
                    f"sweep intensity must be in [0, 1], got {intensity}"
                )
        for arrival in self.arrivals:
            if arrival not in _ARRIVALS:
                raise ValueError(
                    f"unknown sweep arrival {arrival!r}; expected one of "
                    f"{list(_ARRIVALS)}"
                )
        for admission in self.admissions:
            if admission not in _ADMISSION_CONFIGS:
                raise ValueError(
                    f"unknown sweep admission {admission!r}; expected one of "
                    f"{sorted(_ADMISSION_CONFIGS)}"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxes":
        """Build axes from plain data, rejecting unknown keys loudly."""
        reject_unknown_keys(data, _AXES_KEYS, "sweep-axis")
        payload: Dict[str, tuple] = {}
        for axis in ("users", "shards"):
            if axis in data:
                payload[axis] = tuple(int(v) for v in data[axis])
        if "intensities" in data:
            payload["intensities"] = tuple(float(v) for v in data["intensities"])
        if "arrivals" in data:
            payload["arrivals"] = tuple(str(v) for v in data["arrivals"])
        if "admissions" in data:
            payload["admissions"] = tuple(str(v) for v in data["admissions"])
        if "accuracies" in data:
            payload["accuracies"] = tuple(str(v) for v in data["accuracies"])
        if "densities" in data:
            payload["densities"] = tuple(int(v) for v in data["densities"])
        if "radio_ranges" in data:
            payload["radio_ranges"] = tuple(
                float(v) for v in data["radio_ranges"]
            )
        return cls(**payload)

    def cell_count(self) -> int:
        return (
            len(self.users)
            * len(self.shards)
            * len(self.intensities)
            * len(self.arrivals)
            * len(self.admissions)
            * len(self.accuracies)
            * len(self.densities)
            * len(self.radio_ranges)
        )


def plan_for_intensity(spec: ScenarioSpec, intensity: float) -> Dict:
    """The derived fault plan for one intensity step, as plain data.

    Intensity 0 is the empty plan (bit-identical to a fault-free run);
    above 0 a region blackout at the field centre grows with intensity
    and a radio-degradation window raises the corruption probability —
    a deterministic pure function of ``(region, duration, intensity)``.
    """
    if intensity <= 0.0:
        return {}
    from ..net.network import NetworkConfig

    region = NetworkConfig(**spec.network).region
    cx = (region.x_min + region.x_max) / 2.0
    cy = (region.y_min + region.y_max) / 2.0
    span = min(region.x_max - region.x_min, region.y_max - region.y_min)
    duration = spec.duration_s
    return {
        "blackouts": [
            {
                "x": cx,
                "y": cy,
                "radius_m": span * (0.1 + 0.15 * intensity),
                "at_s": round(duration * 0.3, 3),
                "duration_s": round(duration * (0.1 + 0.15 * intensity), 3),
            }
        ],
        "degradations": [
            {
                "at_s": round(duration * 0.55, 3),
                "duration_s": round(duration * 0.1, 3),
                "corruption_prob": round(0.5 * intensity, 3),
            }
        ],
    }


def _merge_fault_dicts(base: Dict, derived: Dict) -> Dict:
    """Concatenate two plain fault plans kind by kind."""
    merged: Dict = {}
    for kind in ("crashes", "blackouts", "degradations", "worker_kills"):
        entries = list(base.get(kind, ())) + list(derived.get(kind, ()))
        if entries:
            merged[kind] = entries
    return merged


@dataclass(frozen=True)
class SweepCell:
    """One grid point: its coordinates plus the fully-derived spec dict.

    The payload travels as plain data so process pools can pickle cells
    without dragging live worlds along.
    """

    users: int
    shards: int
    intensity: float
    arrival: str
    payload: Dict
    admission: str = ADMISSION_ACCEPT_ALL
    accuracy: str = "exact"
    density: int = DENSITY_BASE
    radio_range: float = RADIO_RANGE_BASE


def build_cells(base: ScenarioSpec, axes: SweepAxes) -> List[SweepCell]:
    """Expand the grid: one cell per axis combination.

    The base scenario's *first* request template is the fleet prototype —
    ``count`` becomes the cell's user count and ``spacing_s`` follows the
    arrival axis (kept for ``staggered``, zeroed for ``burst``).  The
    cell's fault plan is the base plan plus the intensity-derived one.
    """
    if not base.requests:
        raise ValueError(
            f"scenario {base.name!r} has no request templates to sweep"
        )
    prototype = dict(base.requests[0])
    base_spacing = float(prototype.get("spacing_s", 2.0)) or 2.0
    cells: List[SweepCell] = []
    combos = [
        (users, shards, intensity, arrival, admission, accuracy, density,
         radio_range)
        for users in axes.users
        for shards in axes.shards
        for intensity in axes.intensities
        for arrival in axes.arrivals
        for admission in axes.admissions
        for accuracy in axes.accuracies
        for density in axes.densities
        for radio_range in axes.radio_ranges
    ]
    for (users, shards, intensity, arrival, admission, accuracy, density,
         radio_range) in combos:
        template = dict(prototype)
        template["count"] = users
        template["spacing_s"] = (
            0.0 if arrival == ARRIVAL_BURST else base_spacing
        )
        template["accuracy"] = accuracy
        payload = base.to_dict()
        # Default axis values keep the legacy cell names (and therefore
        # stable report diffs); only non-default coordinates grow suffixes.
        payload["name"] = (
            f"{base.name}.u{users}.s{shards}"
            f".f{intensity:g}.{arrival}.{admission}"
            + (f".a-{accuracy}" if accuracy != "exact" else "")
            + (f".n{density}" if density != DENSITY_BASE else "")
            + (f".r{radio_range:g}" if radio_range != RADIO_RANGE_BASE else "")
        )
        payload["requests"] = [template]
        payload["shards"] = shards
        # Cells parallelise across the pool, not within it.
        payload["workers"] = 0
        payload["admission"] = dict(_ADMISSION_CONFIGS[admission])
        network = dict(payload.get("network", {}))
        if density != DENSITY_BASE:
            network["n_nodes"] = density
        if radio_range != RADIO_RANGE_BASE:
            network["comm_range_m"] = radio_range
        if network:
            payload["network"] = network
        payload["faults"] = _merge_fault_dicts(
            dict(base.faults),
            plan_for_intensity(base, intensity),
        )
        ScenarioSpec.from_dict(payload)  # fail at build time
        cells.append(
            SweepCell(
                users=users,
                shards=shards,
                intensity=intensity,
                arrival=arrival,
                payload=payload,
                admission=admission,
                accuracy=accuracy,
                density=density,
                radio_range=radio_range,
            )
        )
    return cells


# ----------------------------------------------------------------------
# The churn-leak probe (shared with tests/test_integration_robustness.py)
# ----------------------------------------------------------------------
def leak_census(service) -> Dict[str, int]:
    """Count every kind of residual per-session state in one world.

    The service must already be past its horizon (or have every session
    torn down); the census advances another two beacon periods to measure
    ``pending_growth`` — the kernel-leak proxy: with every session gone,
    the pending-event count may only hold the steady PSM floor, so more
    running must not grow it.  All-zero means teardown is airtight.
    Shared by :func:`churn_leak_probe` and the serve daemon's drain check.
    """
    beacon = service.config.network.sleep_period_s
    pending_before = service.sim.pending_count
    service.advance(service.sim.now + 2.0 * beacon)
    pending_after = service.sim.pending_count
    protocol = service.protocol
    engines = [e for e in (protocol, service.np_protocol) if e is not None]
    plane = service.summary_plane
    open_handles = service.unreleased_handles()
    now = service.sim.now
    return {
        "tree_states": protocol.tree_state_count() if protocol else 0,
        "collectors": protocol.collector_count() if protocol else 0,
        "pending_batches": sum(e.pending_batch_count() for e in engines),
        "engine_sessions": sum(e.session_count() for e in engines),
        "live_floods": service.flood.live_flood_count(),
        "scheduler_slots": len(open_handles),
        "pending_starts": sum(1 for h in open_handles if h.gateway.start_pending),
        "future_psm_overrides": sum(
            node.sleep_scheduler.pending_override_count(now)
            for node in service.network.sleeper_nodes
            if node.sleep_scheduler is not None
        ),
        "summary_sessions": plane.session_count() if plane is not None else 0,
        "pending_growth": max(0, pending_after - pending_before),
    }


def churn_leak_probe(spec: ScenarioSpec) -> Dict[str, int]:
    """Cancel every session mid-run under the spec's faults; count residue.

    Builds the single-world service, submits the whole fleet, cancels
    half at 40% of the horizon and the rest at 70%, runs past the horizon
    plus two beacon periods, and returns the residual-state census —
    all-zero when teardown is airtight.  ``pending_growth`` is the
    kernel-leak proxy: once every session is gone, the pending-event
    census may only hold the steady PSM floor, so another two beacon
    periods of running must not grow it.
    """
    from ..api.scenarios import build_service

    spec = spec.with_overrides(shards=1)
    service = build_service(spec)
    handles = [service.submit(r) for r in build_requests(spec)]
    admitted = [h for h in handles if h.accepted]
    horizon = spec.duration_s
    service.advance(horizon * 0.4)
    for handle in admitted[::2]:
        handle.cancel()
    service.advance(horizon * 0.7)
    for handle in admitted:
        if handle.status != "cancelled":
            handle.cancel()
    beacon = service.config.network.sleep_period_s
    settle = horizon + RUN_TAIL_S + 2.0 * beacon
    service.advance(settle)
    return leak_census(service)


# ----------------------------------------------------------------------
# Cell execution (module-level: process pools must pickle it)
# ----------------------------------------------------------------------
def _result_signature(result) -> Tuple:
    """What the shards=1 identity compares, bit for bit."""
    return (
        tuple(
            (s.user_id, s.success_ratio, s.deliveries, s.degraded_periods)
            for s in result.workload.sessions
        ),
        result.frames_sent,
        result.frames_collided,
        result.frames_delivered,
    )


def run_sweep_cell(cell: SweepCell) -> Dict[str, Any]:
    """Run one grid point and report its row (plain data, pool-safe)."""
    from ..api.scenarios import run_scenario

    spec = ScenarioSpec.from_dict(cell.payload)
    result = run_scenario(spec)
    sessions = result.workload.sessions
    row: Dict[str, Any] = {
        "users": cell.users,
        "shards": cell.shards,
        "intensity": cell.intensity,
        "arrival": cell.arrival,
        "admission": cell.admission,
        "accuracy": cell.accuracy,
        "density": cell.density,
        "radio_range": cell.radio_range,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "mean_success": result.mean_success,
        "min_success": result.min_success,
        "degraded_periods": sum(s.degraded_periods for s in sessions),
        "frames_sent": result.frames_sent,
        "frames_collided": result.frames_collided,
        "events_executed": result.events_executed,
    }
    if cell.shards == 1:
        # The identity leg: an explicit one-shard cluster must reproduce
        # the single world bit for bit, faults included.
        from ..api.admission import make_admission_policy
        from ..api.scenarios import _scenario_config, run_scenario as rerun
        from ..cluster.service import ClusterService

        twin = ClusterService(
            _scenario_config(spec),
            shards=1,
            admission=make_admission_policy(spec.admission),
            partitioner=spec.partitioner,
            workers=0,
            faults=spec.fault_plan(),
        )
        twin_result = rerun(spec, backend=twin)
        row["identity_ok"] = _result_signature(result) == _result_signature(
            twin_result
        )
        leaks = churn_leak_probe(spec)
        row["leaks"] = leaks
        row["leak_total"] = sum(leaks.values())
    return row


# ----------------------------------------------------------------------
# The sweep proper
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """The full grid plus every invariant verdict."""

    name: str
    base: ScenarioSpec
    axes: SweepAxes
    rows: List[Dict[str, Any]]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base_scenario": self.base.to_dict(),
            "axes": {
                "users": list(self.axes.users),
                "shards": list(self.axes.shards),
                "intensities": list(self.axes.intensities),
                "arrivals": list(self.axes.arrivals),
                "admissions": list(self.axes.admissions),
                "accuracies": list(self.axes.accuracies),
                "densities": list(self.axes.densities),
                "radio_ranges": list(self.axes.radio_ranges),
            },
            "rows": self.rows,
            "violations": self.violations,
            "ok": self.ok,
        }

    def markdown_table(self) -> str:
        """The grid as a GitHub-flavored markdown table."""
        header = (
            "| users | shards | arrival | admission | intensity | rejected | "
            "mean success | min success | degraded | identity | leaks |\n"
            "|---|---|---|---|---|---|---|---|---|---|---|"
        )
        lines = [header]
        for row in self.rows:
            identity = (
                "ok" if row.get("identity_ok") else "FAIL"
            ) if "identity_ok" in row else "-"
            leaks = (
                str(row["leak_total"]) if "leak_total" in row else "-"
            )
            admission = row.get("admission", ADMISSION_ACCEPT_ALL)
            lines.append(
                f"| {row['users']} | {row['shards']} | {row['arrival']} "
                f"| {admission} "
                f"| {row['intensity']:g} | {row.get('rejected', 0)} "
                f"| {row['mean_success']:.3f} "
                f"| {row['min_success']:.3f} | {row['degraded_periods']} "
                f"| {identity} | {leaks} |"
            )
        return "\n".join(lines)


def check_invariants(rows: List[Dict[str, Any]]) -> List[str]:
    """Evaluate the metamorphic invariants over a finished grid."""
    violations: List[str] = []
    groups: Dict[Tuple, List[Dict]] = {}
    for row in rows:
        key = (
            row["users"],
            row["shards"],
            row["arrival"],
            row.get("admission", ADMISSION_ACCEPT_ALL),
            row.get("accuracy", "exact"),
            row.get("density", DENSITY_BASE),
            row.get("radio_range", RADIO_RANGE_BASE),
        )
        groups.setdefault(key, []).append(row)
    for key, group in sorted(groups.items()):
        group.sort(key=lambda r: r["intensity"])
        best_so_far = None
        for row in group:
            success = row["mean_success"]
            if (
                best_so_far is not None
                and success > best_so_far + MONOTONICITY_TOLERANCE
            ):
                violations.append(
                    "fault-monotonicity: users=%d shards=%d arrival=%s "
                    "admission=%s — mean success %.4f at intensity %g "
                    "exceeds %.4f at a lower intensity"
                    % (key[0], key[1], key[2], key[3], success,
                       row["intensity"], best_so_far)
                )
            best_so_far = (
                success if best_so_far is None else min(best_so_far, success)
            )
    # density-monotonicity: at a fixed radio range, packing more nodes
    # into the same field can only raise channel contention — mean
    # success must not *improve* as density rises (same tolerance).  The
    # DENSITY_BASE sentinel is excluded: "keep the base count" has no
    # defined ordering against explicit node counts.
    density_groups: Dict[Tuple, List[Dict]] = {}
    for row in rows:
        if row.get("density", DENSITY_BASE) == DENSITY_BASE:
            continue
        key = (
            row["users"],
            row["shards"],
            row["intensity"],
            row["arrival"],
            row.get("admission", ADMISSION_ACCEPT_ALL),
            row.get("accuracy", "exact"),
            row.get("radio_range", RADIO_RANGE_BASE),
        )
        density_groups.setdefault(key, []).append(row)
    for key, group in sorted(density_groups.items()):
        group.sort(key=lambda r: r["density"])
        best_so_far = None
        for row in group:
            success = row["mean_success"]
            if (
                best_so_far is not None
                and success > best_so_far + MONOTONICITY_TOLERANCE
            ):
                violations.append(
                    "density-monotonicity: users=%d shards=%d intensity=%g "
                    "arrival=%s admission=%s accuracy=%s radio_range=%g — "
                    "mean success %.4f at density %d exceeds %.4f at a "
                    "lower density"
                    % (key[0], key[1], key[2], key[3], key[4], key[5],
                       key[6], success, row["density"], best_so_far)
                )
            best_so_far = (
                success if best_so_far is None else min(best_so_far, success)
            )
    for row in rows:
        if row.get("identity_ok") is False:
            violations.append(
                "shards1-identity: users=%d intensity=%g arrival=%s — "
                "ClusterService(shards=1) diverged from MobiQueryService"
                % (row["users"], row["intensity"], row["arrival"])
            )
        if row.get("leak_total", 0) > 0:
            leaked = {
                k: v for k, v in row.get("leaks", {}).items() if v
            }
            violations.append(
                "churn-no-leak: users=%d intensity=%g arrival=%s — "
                "residual state after cancel/crash churn: %s"
                % (row["users"], row["intensity"], row["arrival"], leaked)
            )
    # admission-no-harm: turning sessions away must never *reduce* the
    # admitted users' mean success vs the accept-all baseline at the same
    # grid point — rejection is allowed to cost coverage, not quality.
    baselines: Dict[Tuple, float] = {}
    for row in rows:
        if row.get("admission", ADMISSION_ACCEPT_ALL) == ADMISSION_ACCEPT_ALL:
            point = (row["users"], row["shards"], row["intensity"],
                     row["arrival"], row.get("accuracy", "exact"),
                     row.get("density", DENSITY_BASE),
                     row.get("radio_range", RADIO_RANGE_BASE))
            baselines[point] = row["mean_success"]
    for row in rows:
        admission = row.get("admission", ADMISSION_ACCEPT_ALL)
        if admission == ADMISSION_ACCEPT_ALL or not row.get("rejected"):
            continue
        point = (row["users"], row["shards"], row["intensity"],
                 row["arrival"], row.get("accuracy", "exact"),
                 row.get("density", DENSITY_BASE),
                 row.get("radio_range", RADIO_RANGE_BASE))
        baseline = baselines.get(point)
        if baseline is None:
            continue
        if row["mean_success"] < baseline - MONOTONICITY_TOLERANCE:
            violations.append(
                "admission-no-harm: users=%d shards=%d intensity=%g "
                "arrival=%s — admission=%s rejected %d sessions yet mean "
                "success %.4f fell below the accept-all baseline %.4f"
                % (row["users"], row["shards"], row["intensity"],
                   row["arrival"], admission, row["rejected"],
                   row["mean_success"], baseline)
            )
    return violations


def run_sweep(
    base: ScenarioSpec,
    axes: Optional[SweepAxes] = None,
    workers: int = 0,
    name: Optional[str] = None,
) -> SweepResult:
    """Run the whole grid (process pool when ``workers`` allows) and
    evaluate the invariants.  Never raises on a violation — the verdicts
    ride in :attr:`SweepResult.violations` for the caller to act on."""
    from ..cluster.transport import parallel_map

    axes = axes if axes is not None else SweepAxes()
    cells = build_cells(base, axes)
    rows = None
    if workers > 1:
        rows = parallel_map(run_sweep_cell, cells, max_workers=workers)
    if rows is None:
        rows = [run_sweep_cell(cell) for cell in cells]
    violations = check_invariants(rows)
    return SweepResult(
        name=name or base.name,
        base=base,
        axes=axes,
        rows=rows,
        violations=violations,
    )


def write_sweep_outputs(result: SweepResult, out_dir: str = ".") -> str:
    """Write ``SWEEP_<name>.json`` (and return its path)."""
    safe = result.name.replace("/", "-").replace(" ", "-")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"SWEEP_{safe}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


__all__ = [
    "ADMISSION_ACCEPT_ALL",
    "ARRIVAL_BURST",
    "ARRIVAL_STAGGERED",
    "MONOTONICITY_TOLERANCE",
    "SweepAxes",
    "SweepCell",
    "SweepResult",
    "build_cells",
    "check_invariants",
    "churn_leak_probe",
    "leak_census",
    "plan_for_intensity",
    "run_sweep",
    "run_sweep_cell",
    "write_sweep_outputs",
]
