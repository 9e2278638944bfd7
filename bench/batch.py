"""The batch runner: replay a workload's script against a fresh backend.

One *unit* is ``build_backend(spec)`` → the script's submits / advances /
cancels → ``close()``, offline and single-threaded.  A run is timed units
until ``--seconds`` have passed; a traced run is a short warm-up, one plain
unit and one under ``cProfile``.  Every unit of a run has the same inputs, so
every unit must leave the same fingerprint — and the same verb takes the same
work in every unit, so a run times each verb of the script by the median over
its units of wall ÷ host-speed reading (see ``nominal_walls``).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, Iterable, List, Optional, Tuple

from .stats import percentile
from .trace import LAYERS, Spans, bucket_profile
from .workloads import Op, batch_workload, horizon_s

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
#: the seed ``pins.json`` was recorded at
PIN_SEED = 1
#: timed units per run: at least this many, and never more than the cap
MIN_UNITS = 4
MAX_UNITS = 64
#: iterations of the reference kernel: about a millisecond of heap pushes and
#: float adds, the simulator's own diet
REF_ITERATIONS = 5000
#: the host speed timings are stated at: the reference kernel takes this long
REF_NOMINAL_S = 1.0e-3
#: a verb gets a fresh host-speed reading when the last one is older than this
REF_EVERY_S = 4.0e-3
#: workloads that must never touch the approximate or the fault plane
EXACT_NO_FAULTS = ("paper1", "fleet16", "dense48")


@dataclass
class Unit:
    """What one unit measured and left behind."""

    spans: Spans
    #: wall of ``build_backend``, and the host-speed reading around it
    setup_s: float
    setup_ref_s: float
    #: wall of every script verb, in script order, then of ``close()``
    walls: List[float]
    #: the host-speed reading each of those walls was taken under
    refs: List[float]
    fingerprint: Dict
    periods: int
    success_ratio: float
    failed: int


def reference_s() -> float:
    """Wall of the reference kernel now: the host's speed, read in ~1 ms."""
    start = time.perf_counter()
    heap: List[int] = []
    total = 0.0
    for i in range(REF_ITERATIONS):
        heapq.heappush(heap, (i * 7919) % 10007)
        total += i * 0.5
        if len(heap) > 100:
            heapq.heappop(heap)
    return time.perf_counter() - start


def nominal_s(walls: Iterable[float], refs: Iterable[float]) -> float:
    """Median of wall ÷ host-speed reading, at the nominal host speed."""
    return REF_NOMINAL_S * median(w / r for w, r in zip(walls, refs))


def nominal_walls(units: List[Unit]) -> List[float]:
    """Per verb of the script, its wall at the nominal host speed.

    Each core of this host runs at two speeds a quarter apart and changes
    between them every few seconds (``bench/README.md`` has the series), so
    a median over a handful of units reads whichever speed held the majority:
    it moved 10-21 % between windows of identical work, and the fastest of
    the units still 4-15 %.  The speed holds for seconds and a verb takes
    milliseconds, so a reference kernel timed just before the verb read the
    same speed: wall ÷ reading, median over the units, moved 2-3 %.
    """
    return [
        nominal_s(walls, refs)
        for walls, refs in zip(
            zip(*(u.walls for u in units)), zip(*(u.refs for u in units))
        )
    ]


def run_unit(
    spec_dict: Dict,
    script: List[Op],
    profile: Optional[cProfile.Profile] = None,
    calibrate: bool = True,
) -> Unit:
    """Build, drive and close one backend; score what it produced.

    With ``calibrate``, the reference kernel runs between the verbs (never
    inside a span); a traced unit reports raw walls and skips it.
    """
    from repro.api.scenarios import ScenarioSpec, build_backend, request_from_payload

    def reading() -> float:
        return reference_s() if calibrate else REF_NOMINAL_S

    spec = ScenarioSpec.from_dict(spec_dict)
    spans = Spans()
    handles: Dict[int, object] = {}
    before = reading()
    if profile is not None:
        profile.enable()
    root = spans.begin("unit")
    span = spans.begin("setup", root)
    backend = build_backend(spec)
    setup_s = spans.end(span)
    ref = reading()
    read_at = time.perf_counter()
    setup_ref_s = (before + ref) / 2.0
    walls: List[float] = []
    refs: List[float] = []
    for op in script + [("close",)]:
        if calibrate and time.perf_counter() - read_at > REF_EVERY_S:
            ref = reference_s()
            read_at = time.perf_counter()
        if op[0] == "advance":
            span = spans.begin("advance", root)
            backend.advance(op[1])
        elif op[0] == "submit":
            span = spans.begin("submit", root, session=op[1])
            handles[op[1]] = backend.submit(request_from_payload(op[2]))
        elif op[0] == "cancel":
            span = spans.begin("cancel", root, session=op[1])
            backend.cancel(handles[op[1]])
        else:
            span = spans.begin("close", root)
            result = backend.close()
        walls.append(spans.end(span))
        refs.append(ref)
    spans.end(root)
    if profile is not None:
        profile.disable()

    stats = backend.stats()
    admitted = [h for h in handles.values() if h.accepted]
    periods = failed = 0
    digest = hashlib.sha256()
    if len(admitted) != len(result.sessions):
        failed += abs(len(admitted) - len(result.sessions))
    for handle, session in zip(admitted, result.sessions):
        records = session.metrics.records
        # success = on time *and* at the fidelity bar (the paper's metric)
        flags = tuple(int(r.success) for r in records)
        periods += len(flags)
        digest.update(repr((session.user_id, flags)).encode())
        # a session that ran to the horizon owes one record per period
        if handle.status == "completed" and len(flags) != handle.spec.num_periods:
            failed += 1
    fingerprint = {
        "events_executed": stats.events_executed,
        "frames_sent": stats.frames_sent,
        "frames_collided": stats.frames_collided,
        "frames_delivered": stats.frames_delivered,
        "submitted": stats.submitted,
        "admitted": stats.admitted,
        "rejected": stats.rejected,
        "cancelled": stats.cancelled,
        "success_hash": digest.hexdigest()[:16],
    }
    return Unit(
        spans=spans,
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        walls=walls,
        refs=refs,
        fingerprint=fingerprint,
        periods=periods,
        success_ratio=result.mean_success_ratio(),
        failed=failed,
    )


def _moved(what: str, want: Dict, got: Dict) -> List[str]:
    """One line per field of ``got`` that differs from ``want``."""
    return [
        f"{what}: {key} moved {want.get(key)!r} -> {got.get(key)!r}"
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    ]


def _runtime() -> Tuple[str, str]:
    """``(python major.minor, physics leg)`` — what call counts depend on."""
    from repro.net.vectorized import accelerator_name

    python = ".".join(platform.python_version_tuple()[:2])
    return python, accelerator_name().split("-")[0]


def _check_pins(
    name: str, fingerprint: Dict, calls: Optional[Dict[str, int]], update: bool
) -> Tuple[List[str], List[str]]:
    """Compare a seed-1 run with ``pins.json`` (or re-record it).

    Returns ``(problems, notes)``.  The fingerprint is the simulation's own
    output: a speed-up must leave it alone, so a moved field is a problem.
    Profiler call counts are what a speed-up is *meant* to move (and they
    follow the interpreter and the physics leg), so a moved count is a note
    in the run's record, compared only on the runtime the pins were taken on.
    """
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    python, leg = _runtime()
    if calls is not None:
        # non-repro code ("other") follows the interpreter, not us
        calls = {layer: n for layer, n in calls.items() if layer != "other"}
    if update:
        pins.update({"seed": PIN_SEED, "python": python, "accelerator": leg})
        entry = pins.setdefault("workloads", {}).setdefault(name, {})
        entry["fingerprint"] = fingerprint
        if calls is not None:
            entry["calls"] = calls
        with open(PINS_PATH, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [], []
    entry = pins.get("workloads", {}).get(name)
    if entry is None:
        return [f"no pin for {name} in {PINS_PATH}"], []
    problems = _moved("pin", entry["fingerprint"], fingerprint)
    if calls is None:
        return problems, []
    if (pins.get("python"), pins.get("accelerator")) != (python, leg):
        return problems, [
            f"call counts not compared: pinned on python {pins.get('python')} / "
            f"{pins.get('accelerator')}, running {python} / {leg}"
        ]
    return problems, _moved("pinned calls", entry.get("calls", {}), calls)


def _by_verb(script: List[Op], walls: List[float]) -> Dict[str, List[float]]:
    """``walls`` (one per script verb, then ``close``) grouped by verb."""
    grouped: Dict[str, List[float]] = {
        "submit": [], "advance": [], "cancel": [], "close": []
    }
    for verb, wall in zip([op[0] for op in script] + ["close"], walls):
        grouped[verb].append(wall)
    return grouped


def _layer_metrics(
    profile: cProfile.Profile, plain: Unit, traced: Unit, walls: Dict[str, List[float]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The per-layer metrics of a traced run, and the layers' call counts."""
    self_s, calls, named = bucket_profile(profile)
    fp = plain.fingerprint
    frames = max(1, fp["frames_sent"])
    busy_s = sum(plain.walls)
    metrics: Dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    metrics.update(
        {
            "net.channel.listeners_per_frame": fp["frames_delivered"] / frames,
            "net.channel.collided_frac": fp["frames_collided"]
            / max(1, fp["frames_collided"] + fp["frames_delivered"]),
            "mobility.position_at_per_frame": named["position_at"] / frames,
            "net.mac.on_frame_per_delivery": named["on_frame"]
            / max(1, fp["frames_delivered"]),
            "sim.kernel.events_per_frame": fp["events_executed"] / frames,
            "api.service.submit.mean_us": 1e6
            * sum(walls["submit"])
            / max(1, len(walls["submit"])),
            "api.service.cancel.mean_us": 1e6
            * sum(walls["cancel"])
            / max(1, len(walls["cancel"])),
            "api.service.advance.busy_s": sum(walls["advance"]),
            "api.service.close.busy_s": sum(walls["close"]),
            "api.service.control_frac": (busy_s - sum(walls["advance"])) / busy_s,
            "api.admission.rejected_frac": fp["rejected"] / max(1, fp["submitted"]),
            "trace.overhead_x": (traced.setup_s + sum(traced.walls))
            / (plain.setup_s + busy_s),
        }
    )
    return metrics, calls


def run_batch(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    update_pins: bool = False,
    out_dir: Optional[str] = None,
) -> Dict:
    """One run of a batch workload; returns metrics, details and problems."""
    spec, script = batch_workload(name, seed, smoke)
    horizon = horizon_s(name, smoke)

    # imports, lazy set-up and the allocator settle in a short untimed unit
    run_unit(*batch_workload(name, seed, smoke=True), calibrate=False)
    profile: Optional[cProfile.Profile] = None
    if trace:
        profile = cProfile.Profile()
        units = [
            run_unit(spec, script, calibrate=False),
            run_unit(spec, script, profile, calibrate=False),
        ]
    else:
        units = []
        start = time.perf_counter()
        min_units = 2 if smoke else MIN_UNITS
        while len(units) < MAX_UNITS and (
            len(units) < min_units or time.perf_counter() - start < seconds
        ):
            # every unit starts from a collected heap, so peak RSS is one
            # world's and not a count of the units that came before
            gc.collect()
            units.append(run_unit(spec, script))

    first = units[0]
    problems: List[str] = []
    for index, unit in enumerate(units[1:], start=2):
        problems += _moved(
            f"unit {index} differs from unit 1", first.fingerprint, unit.fingerprint
        )
    fp = first.fingerprint
    details: Dict = {
        "horizon_s": horizon,
        "units": len(units),
        "busy_s": [sum(u.walls) for u in units],
        "setup_s": [u.setup_s for u in units],
        "fingerprint": fp,
    }

    calls: Optional[Dict[str, int]] = None
    if trace:
        plain, traced = units
        metrics, calls = _layer_metrics(
            profile, plain, traced, _by_verb(script, plain.walls)
        )
        details["traced_wall_s"] = traced.setup_s + sum(traced.walls)
        details["layer_self_sum_s"] = sum(
            metrics[f"{layer}.self_s"] for layer in LAYERS
        )
        if name in EXACT_NO_FAULTS:
            for layer in ("approx", "faults"):
                if calls[layer]:
                    problems.append(
                        f"{layer}.calls is {calls[layer]} on {name}: an exact, "
                        f"fault-free workload must never enter that plane"
                    )
        if out_dir is not None:
            traced.spans.write(os.path.join(out_dir, f"trace_{name}.json"))
    else:
        nominal = nominal_walls(units)
        walls = _by_verb(script, nominal)
        metrics = {
            "setup_s": nominal_s(
                [u.setup_s for u in units], [u.setup_ref_s for u in units]
            ),
            "sim_s_per_busy_s": horizon / sum(nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": first.success_ratio,
            "frames_per_period": fp["frames_sent"] / max(1, first.periods),
            "submit_p50_ms": 1e3 * percentile(walls["submit"], 50),
        }
        details["nominal_busy_s"] = sum(nominal)
        details["host_speed"] = [
            sum(u.refs) / len(u.refs) / REF_NOMINAL_S for u in units
        ]
        # the median over this many units; then over this many submits
        details["samples"] = {
            "setup_s": len(units),
            "sim_s_per_busy_s": len(units),
            "submit_p50_ms": len(walls["submit"]),
        }

    if not smoke and seed == PIN_SEED:
        pin_problems, details["pin_notes"] = _check_pins(
            name, fp, calls, update_pins
        )
        problems += pin_problems

    return {
        "metrics": metrics,
        "attempted": len(units) * len(first.walls),
        "failed": sum(u.failed for u in units),
        "problems": problems,
        "details": details,
    }
