"""The adversarial robustness sweep (``repro sweep``).

Fans one base :class:`~repro.api.scenarios.ScenarioSpec` across the
eight axes :class:`SweepAxes` declares — fleet size x shard count x fault
intensity x arrival process x admission policy x answer accuracy x node
density x radio range — through the cluster transport's process pool,
and checks the *metamorphic invariants* on the grid:

* **fault-monotonicity** — mean success never *improves* as fault
  intensity rises (within a 1 pp tolerance for tie-break noise), holding
  the other axes fixed.  Faults draw from their own RNG stream, so the
  underlying world is identical across intensities; a success ratio that
  goes *up* under heavier faults means the recovery machinery perturbed
  the fault-free path.
* **density-monotonicity** — at a fixed radio range, mean success never
  improves as node density rises: more radios in the same field can
  only add channel contention.
* **admission-no-harm** — a policy that turned sessions away never
  leaves the admitted ones worse off than accept-all at the same point.
* **shards1-identity** — a ``shards=1`` cluster is bit-identical to the
  single-world service *with the same fault plan injected*.
* **churn-no-leak** — interleaved cancel + fault churn leaves zero
  residual protocol state: no tree states, collector chains, live flood
  dedup entries, sessions not torn down, pending session starts, or future
  PSM wake overrides, and the kernel's pending-event census stops shrinking
  only at the steady PSM floor (no session callback keeps rescheduling).

A violated invariant is a loud failure: the CLI exits non-zero naming
the invariant and every coordinate of the offending row.  Results are
written as ``SWEEP_<name>.json`` plus a markdown table.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..api.requests import ACCURACY_LEVELS
from ..api.scenarios import ScenarioSpec, build_requests
from ..api.service import RUN_TAIL_S
from ..plain import load
from ..workload.arrivals import ARRIVAL_STAGGERED

#: tolerance for the monotonicity invariants (success is a ratio in [0,1])
MONOTONICITY_TOLERANCE = 0.01

#: the arrival-process axis values (staggered keeps the template's spacing)
ARRIVAL_BURST = "burst"

#: the admission-policy axis values (names -> scenario admission configs)
ADMISSION_ACCEPT_ALL = "accept-all"
_ADMISSION_CONFIGS: Dict[str, Dict] = {
    ADMISSION_ACCEPT_ALL: {},
    "per-area-cap": {"policy": "per-area-cap", "max_overlapping": 3},
    "phase-assign": {"policy": "phase-assign", "slots": 4},
}


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


def _faults_at(payload: Dict, base: ScenarioSpec, intensity: float) -> None:
    """The base plan plus the intensity-derived one, kind by kind."""
    derived = plan_for_intensity(base, intensity)
    merged: Dict = {}
    for kind in ("crashes", "blackouts", "degradations", "worker_kills"):
        entries = list(base.faults.get(kind, ())) + list(derived.get(kind, ()))
        if entries:
            merged[kind] = entries
    payload["faults"] = merged


def _spacing_for(payload: Dict, base: ScenarioSpec, arrival: str) -> None:
    """Keep the template's spacing (``staggered``) or zero it (``burst``)."""
    template = payload["requests"][0]
    spacing = float(template.get("spacing_s", 2.0)) or 2.0
    template["spacing_s"] = 0.0 if arrival == ARRIVAL_BURST else spacing


def _network(key: str) -> Callable[[Dict, Any, Any], None]:
    """Rewrite one network key; a falsy value (the base coordinate ``0``,
    or no draw at all) keeps the scenario's own."""

    def rewrite(payload: Dict, base: Any, value: Any) -> None:
        if value:
            payload["network"] = {**payload.get("network", {}), key: value}

    return rewrite


@dataclass(frozen=True)
class Axis:
    """Everything the sweep knows of one axis, declared once.

    The grid product, value checks, the cell names, the row
    coordinates, the report's ``axes``, the invariants' grouping and
    ``repro sweep``'s flags all read this; a new axis is one more
    :class:`SweepAxes` field.
    """

    #: the coordinate's name in a cell and a report row
    key: str
    #: element type, parsed from the command line
    cast: type
    #: the ``repro sweep`` flag's help (``{}``: the choices)
    help: str
    #: cell-name fragment, ``str.format``-ed with the coordinate
    tag: str
    #: rewrites a cell's payload (``requests[0]`` is its template) in place
    rewrite: Callable[[Dict, ScenarioSpec, Any], None]
    #: the coordinate a row without ``key`` sits at
    base: Any = None
    #: the base coordinate adds no tag, so older cell names stay
    quiet: bool = False
    choices: Tuple[str, ...] = ()
    at_least: Optional[float] = None
    at_most: Optional[float] = None

    def error(self, value: Any) -> Optional[str]:
        """Why ``value`` is not a coordinate of this axis (``None``: it is)."""
        noun = self.key.replace("_", " ")
        if self.choices and value not in self.choices:
            return (f"unknown sweep {noun} {value!r}; expected one of "
                    f"{list(self.choices)}")
        if self.at_most is not None:
            if not self.at_least <= value <= self.at_most:
                return (f"sweep {noun} must be in [{self.at_least}, "
                        f"{self.at_most}], got {value}")
        elif self.at_least is not None and value < self.at_least:
            return f"sweep {noun} must be >= {self.at_least}, got {value}"
        return None

    @property
    def flag_help(self) -> str:
        return self.help.format(", ".join(self.choices))

    def fragment(self, value: Any) -> str:
        """The cell-name fragment of one coordinate."""
        return "" if self.quiet and value == self.base else self.tag.format(value)


def _axis(default: tuple, **declaration: Any):
    """A :class:`SweepAxes` field carrying its :class:`Axis`."""
    return field(default=default, metadata={"axis": Axis(**declaration)})


@dataclass(frozen=True)
class SweepAxes:
    """The sweep grid: every combination of these values runs as one cell.

    Each field is one axis and carries its :class:`Axis` declaration.
    """

    users: Tuple[int, ...] = _axis(
        (4, 8), key="users", cast=int, at_least=1, tag=".u{}",
        help="comma-separated fleet sizes, e.g. 4,8",
        rewrite=lambda payload, base, n: payload["requests"][0].update(count=n),
    )
    shards: Tuple[int, ...] = _axis(
        (1, 2), key="shards", cast=int, at_least=1, tag=".s{}",
        help="comma-separated shard counts, e.g. 1,2",
        rewrite=lambda payload, base, n: payload.update(shards=n),
    )
    intensities: Tuple[float, ...] = _axis(
        (0.0, 0.5, 1.0), key="intensity", cast=float, at_least=0, at_most=1,
        tag=".f{:g}", rewrite=_faults_at,
        help="comma-separated fault intensities in [0,1], e.g. 0,0.5,1",
    )
    arrivals: Tuple[str, ...] = _axis(
        (ARRIVAL_STAGGERED, ARRIVAL_BURST), key="arrival", cast=str,
        choices=(ARRIVAL_STAGGERED, ARRIVAL_BURST), tag=".{}",
        rewrite=_spacing_for,
        help="comma-separated arrival processes ({})",
    )
    admissions: Tuple[str, ...] = _axis(
        (ADMISSION_ACCEPT_ALL,), key="admission", cast=str,
        choices=tuple(_ADMISSION_CONFIGS), base=ADMISSION_ACCEPT_ALL,
        tag=".{}",
        rewrite=lambda payload, base, name: payload.update(
            admission=dict(_ADMISSION_CONFIGS[name])
        ),
        help="comma-separated admission policies ({})",
    )
    accuracies: Tuple[str, ...] = _axis(
        ("exact",), key="accuracy", cast=str, choices=ACCURACY_LEVELS,
        base="exact", quiet=True, tag=".a-{}",
        rewrite=lambda payload, base, level: payload["requests"][0].update(
            accuracy=level
        ),
        help="comma-separated accuracy levels ({}) — covers the "
        "summary-served path in the fault grid",
    )
    densities: Tuple[int, ...] = _axis(
        (0,), key="density", cast=int, at_least=0, base=0, quiet=True,
        tag=".n{}", rewrite=_network("n_nodes"),
        help="comma-separated node counts, e.g. 150,200,300 "
        "(0 = the scenario's own density)",
    )
    radio_ranges: Tuple[float, ...] = _axis(
        (0.0,), key="radio_range", cast=float, at_least=0, base=0.0,
        quiet=True, tag=".r{:g}", rewrite=_network("comm_range_m"),
        help="comma-separated comm ranges in metres, e.g. 90,105,120 "
        "(0 = the scenario's own range)",
    )

    def __post_init__(self) -> None:
        for name in AXES:
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} must not be empty")
        for name, axis in AXES.items():
            for value in getattr(self, name):
                error = axis.error(value)
                if error:
                    raise ValueError(error)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxes":
        """Build axes from plain data through :func:`repro.plain.load`."""
        return load(cls, data, "sweep-axis")

    def to_dict(self) -> Dict[str, list]:
        return {name: list(getattr(self, name)) for name in AXES}

    def cell_count(self) -> int:
        return math.prod(len(getattr(self, name)) for name in AXES)


#: field name (the plural ``from_dict`` / ``--flag`` spelling) -> its axis
AXES: Dict[str, Axis] = {f.name: f.metadata["axis"] for f in fields(SweepAxes)}


def _coord(row: Mapping[str, Any], axis: Axis) -> Any:
    return row.get(axis.key, axis.base)


def _shown(row: Mapping[str, Any], axis: Axis) -> str:
    """``row``'s coordinate on ``axis`` as the reports print it."""
    value = _coord(row, axis)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _describe(row: Mapping[str, Any], without: str = "") -> str:
    """``users=2 shards=1 ...``: every coordinate of ``row`` but ``without``."""
    return " ".join(
        f"{axis.key}={_shown(row, axis)}"
        for axis in AXES.values()
        if axis.key != without
    )


@dataclass(frozen=True)
class SweepCell:
    """One grid point: its coordinates plus the fully-derived spec dict.

    The payload travels as plain data so process pools can pickle cells
    without dragging live worlds along.  A coordinate reads as an
    attribute under its axis key: ``cell.users``, ``cell.arrival``.
    """

    payload: Dict
    coords: Dict[str, Any]

    def __getattr__(self, key: str) -> Any:
        try:
            return self.__dict__["coords"][key]
        except KeyError:
            raise AttributeError(key) from None


def build_cells(base: ScenarioSpec, axes: SweepAxes) -> List[SweepCell]:
    """Expand the grid: one cell per axis combination.

    The base scenario's *first* request template is the fleet prototype;
    each axis rewrites its copy in the cell's payload (``count`` becomes
    the user count, ``spacing_s`` follows the arrival axis, ...).  The
    cell's fault plan is the base plan plus the intensity-derived one.
    """
    if not base.requests:
        raise ValueError(
            f"scenario {base.name!r} has no request templates to sweep"
        )
    cells: List[SweepCell] = []
    for point in itertools.product(*(getattr(axes, name) for name in AXES)):
        placed = list(zip(AXES.values(), point))
        payload = base.to_dict()
        payload["requests"] = [dict(base.requests[0])]
        # Cells parallelise across the pool, not within it.
        payload["workers"] = 0
        for axis, value in placed:
            axis.rewrite(payload, base, value)
        payload["name"] = base.name + "".join(
            axis.fragment(value) for axis, value in placed
        )
        ScenarioSpec.from_dict(payload)  # fail at build time
        coords = {axis.key: value for axis, value in placed}
        cells.append(SweepCell(payload=payload, coords=coords))
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
        **cell.coords,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "mean_success": result.mean_success,
        "min_success": result.min_success,
        "degraded_periods": sum(s.degraded_periods for s in sessions),
        "frames_sent": result.frames_sent,
        "frames_collided": result.frames_collided,
        "events_executed": result.events_executed,
    }
    if spec.shards == 1:
        # The identity leg: an explicit one-shard cluster must reproduce
        # the single world bit for bit, faults included.
        from ..api.admission import make_admission_policy
        from ..api.scenarios import run_scenario as rerun
        from ..cluster.service import ClusterService

        twin = ClusterService(
            spec.world(),
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
            "axes": self.axes.to_dict(),
            "rows": self.rows,
            "violations": self.violations,
            "ok": self.ok,
        }

    def markdown_table(self) -> str:
        """The grid as a GitHub-flavored markdown table, one column per axis."""
        columns = [axis.key.replace("_", " ") for axis in AXES.values()] + [
            "rejected", "mean success", "min success", "degraded",
            "identity", "leaks",
        ]
        lines = [
            "| " + " | ".join(columns) + " |",
            "|" + "---|" * len(columns),
        ]
        for row in self.rows:
            identity = (
                "ok" if row.get("identity_ok") else "FAIL"
            ) if "identity_ok" in row else "-"
            leaks = (
                str(row["leak_total"]) if "leak_total" in row else "-"
            )
            coords = [_shown(row, axis) for axis in AXES.values()]
            lines.append(
                "| " + " | ".join(coords) + f" | {row.get('rejected', 0)} "
                f"| {row['mean_success']:.3f} "
                f"| {row['min_success']:.3f} | {row['degraded_periods']} "
                f"| {identity} | {leaks} |"
            )
        return "\n".join(lines)


def _along(rows: List[Dict[str, Any]], key: str) -> List[List[Dict[str, Any]]]:
    """Rows grouped by every coordinate except ``key``, each group ordered
    along ``key`` — the paper's one-parameter-at-a-time comparison."""
    axis = next(a for a in AXES.values() if a.key == key)
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for row in rows:
        point = tuple(_coord(row, a) for a in AXES.values() if a is not axis)
        groups.setdefault(point, []).append(row)
    return [
        sorted(group, key=lambda row: _coord(row, axis))
        for _, group in sorted(groups.items())
    ]


def _monotonicity(
    invariant: str, rows: List[Dict[str, Any]], key: str
) -> List[str]:
    """Mean success must not rise (beyond the tolerance) along ``key``."""
    violations: List[str] = []
    for group in _along(rows, key):
        best_so_far = None
        for row in group:
            success = row["mean_success"]
            if (
                best_so_far is not None
                and success > best_so_far + MONOTONICITY_TOLERANCE
            ):
                violations.append(
                    "%s: %s — mean success %.4f at %s %g exceeds %.4f at a "
                    "lower %s"
                    % (invariant, _describe(row, without=key), success, key,
                       row[key], best_so_far, key)
                )
            best_so_far = (
                success if best_so_far is None else min(best_so_far, success)
            )
    return violations


def check_invariants(rows: List[Dict[str, Any]]) -> List[str]:
    """Evaluate the metamorphic invariants over a finished grid."""
    violations = _monotonicity("fault-monotonicity", rows, "intensity")
    # density-monotonicity: at a fixed radio range, packing more nodes
    # into the same field can only raise channel contention — mean
    # success must not *improve* as density rises (same tolerance).  The
    # base density (0, "keep the scenario's count") is excluded: it has
    # no defined ordering against explicit node counts.
    violations += _monotonicity(
        "density-monotonicity",
        [row for row in rows if row.get("density")],
        "density",
    )
    for row in rows:
        if row.get("identity_ok") is False:
            violations.append(
                "shards1-identity: %s — ClusterService(shards=1) diverged "
                "from MobiQueryService" % _describe(row)
            )
        if row.get("leak_total", 0) > 0:
            leaked = {
                k: v for k, v in row.get("leaks", {}).items() if v
            }
            violations.append(
                "churn-no-leak: %s — residual state after cancel/crash "
                "churn: %s" % (_describe(row), leaked)
            )
    # admission-no-harm: turning sessions away must never *reduce* the
    # admitted users' mean success vs the accept-all baseline at the same
    # grid point — rejection is allowed to cost coverage, not quality.
    for group in _along(rows, "admission"):
        baselines: List[Dict[str, Any]] = []
        judged: List[Dict[str, Any]] = []
        for row in group:
            admission = row.get("admission", ADMISSION_ACCEPT_ALL)
            (baselines if admission == ADMISSION_ACCEPT_ALL else judged).append(row)
        if not baselines:
            continue
        baseline = baselines[-1]["mean_success"]
        for row in judged:
            if not row.get("rejected"):
                continue
            if row["mean_success"] < baseline - MONOTONICITY_TOLERANCE:
                violations.append(
                    "admission-no-harm: %s — admission=%s rejected %d "
                    "sessions yet mean success %.4f fell below the "
                    "accept-all baseline %.4f"
                    % (_describe(row, without="admission"), row["admission"],
                       row["rejected"], row["mean_success"], baseline)
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


def write_report(prefix: str, name: str, data: Dict, out_dir: str = ".") -> str:
    """Write ``<prefix>_<name>.json`` under ``out_dir`` (and return its path)."""
    safe = name.replace("/", "-").replace(" ", "-")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{prefix}_{safe}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_sweep_outputs(result: SweepResult, out_dir: str = ".") -> str:
    """Write ``SWEEP_<name>.json`` (and return its path)."""
    return write_report("SWEEP", result.name, result.to_dict(), out_dir)


__all__ = [
    "ADMISSION_ACCEPT_ALL",
    "ARRIVAL_BURST",
    "ARRIVAL_STAGGERED",
    "AXES",
    "Axis",
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
    "write_report",
    "write_sweep_outputs",
]
