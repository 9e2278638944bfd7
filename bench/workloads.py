"""The five named workloads, as plain data made from ``--seed``.

A batch workload is a :class:`~repro.api.scenarios.ScenarioSpec` dict (no
request templates) plus an ordered script of backend verbs — the runner
replays the script against a fresh ``build_backend(spec)`` and then calls
``close()``.  The serving workload is a spec dict plus two seeded arrival
generators.  Nothing here imports ``repro``: the program only ever receives
the generated inputs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: the paper's Tperiod; Tfresh is half the period on every exact session
PERIOD_S = 2.0

#: simulated seconds one unit of each batch workload covers
HORIZON_S = {"paper1": 400.0, "fleet16": 120.0, "dense48": 60.0, "churn-mix": 300.0}
#: the same at ``--smoke`` scale (contract test; pins are not checked there)
SMOKE_HORIZON_S = {"paper1": 20.0, "fleet16": 20.0, "dense48": 8.0, "churn-mix": 60.0}
#: churn-mix session arrivals per simulated second
CHURN_RATE = 2.5

BATCH = tuple(HORIZON_S)
SERVE = "serve-paced"
NAMES = BATCH + (SERVE,)

#: ``repro serve --time-scale`` of the serving workload (sim-s per wall-s)
TIME_SCALE = 8.0
#: open-loop submissions per wall second
SERVE_RATE = 10.0
#: open-loop session lifetime (4 periods; 1 s of wall at TIME_SCALE)
SERVE_LIFETIME_S = 8.0
#: probe sessions: period and lifetime in simulated seconds
PROBE_PERIOD_S = 0.5
PROBE_LIFETIME_S = 24.0

# One script entry: ("advance", t) | ("submit", key, payload) | ("cancel", key)
Op = Tuple


def horizon_s(name: str, smoke: bool = False) -> float:
    return (SMOKE_HORIZON_S if smoke else HORIZON_S)[name]


#: Where users walk is fixed; the field under them, the readings, MAC
#: back-offs, PSM phases and (churn-mix, serve-paced) who asks for what and
#: when come from the seed.  Left to the service, every user takes a seeded
#: random-direction walk, and how long the walks hug the field edge or each
#: other moved the work of a run by +-10 % (fleet16, churn-mix) and frames per
#: period by 13 % (paper1) between seeds; on fixed beats both stay within 4 %.
PAPER1_TOUR = [[75, 75], [375, 75], [375, 375], [75, 375], [75, 75]]

#: columns x rows of beats tiling the 450 m field, one user on each
FLEET_GRID = (4, 4)
DENSE_GRID = (8, 6)
#: churn-mix deals its sessions over the beats of this grid
CHURN_GRID = (5, 4)
#: dense48's queries are light (30 m, one every 4 s): at the paper's 2 s and
#: 50 m the 600-node field is saturated (a third of the periods on time) and
#: which third is chaotic — success moved 0.25..0.45 between seeds
DENSE_PERIOD_S = 4.0


def _patrol(waypoints: List[List[float]], laps: int) -> Dict:
    return {"kind": "patrol", "waypoints": waypoints, "speed": 4.0, "loops": laps}


def _beat(grid: Tuple[int, int], index: int) -> Dict:
    """A patrol around cell ``index`` of the grid, inset by 15 %."""
    cols, rows = grid
    w, h = 450.0 / cols, 450.0 / rows
    x0, y0 = (index % cols + 0.15) * w, (index // cols % rows + 0.15) * h
    x1, y1 = x0 + 0.7 * w, y0 + 0.7 * h
    return _patrol([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], 8)


def _fleet(
    grid: Tuple[int, int],
    spacing_s: float,
    radius_m: float,
    horizon: float,
    period_s: float = PERIOD_S,
) -> List[Dict]:
    """One user per beat of ``grid``, one every ``spacing_s``; late starters are
    clamped so a smoke-scale horizon still leaves each one serviceable period."""
    return [
        {
            "radius_m": radius_m,
            "period_s": period_s,
            "freshness_s": period_s / 2.0,
            "start_s": min(user * spacing_s, horizon - period_s),
            "path": _beat(grid, user),
        }
        for user in range(grid[0] * grid[1])
    ]


def _stepped(payloads: List[Dict], horizon: float) -> List[Op]:
    """Submit everything at t=0, then advance one Tperiod at a time.

    Stepping by the period is how an in-process streaming client
    (``SessionHandle.results()``) drives the clock; the wall time of one
    step is the delay before that period's outcome can be read.
    """
    script: List[Op] = [("submit", i, p) for i, p in enumerate(payloads)]
    period = payloads[0]["period_s"]
    t = period
    while t < horizon:
        script.append(("advance", t))
        t += period
    return script


def _jittered(rng: np.random.Generator, count: int, span: float) -> List[float]:
    """``count`` arrival times over ``span``: one at a uniform instant of each
    ``span / count`` slot.  Independent arrivals without a Poisson process's
    clumps, and the same number of them at every seed."""
    slot = span / count
    return [float((i + rng.random()) * slot) for i in range(count)]


def _dealt(rng: np.random.Generator, values: List, count: int) -> List:
    """``count`` draws from ``values`` in equal shares, in a seeded order."""
    return [values[i % len(values)] for i in rng.permutation(count)]


def _churn_script(seed: int, horizon: float) -> List[Op]:
    """Short sessions arriving, and 30 % of them leaving, mid-run.

    Every attribute is dealt in fixed shares (half the sessions ``medium`` or
    ``coarse``) from a generator that does not see the seed: who asks for
    what, where and for how long is the same in every run.  Admission keeps
    about half of them, and which half follows the overlaps; with the mix
    seeded too, the admitted share of expensive (exact, wide) sessions moved
    frames per period by 9 % and events by 12 % between seeds — with only the
    arrival instants (and the field under them) seeded, 5 % and 4 %.
    """
    rng = np.random.default_rng([seed, 4])
    mix = np.random.default_rng(4)
    count = int(CHURN_RATE * horizon)
    columns = zip(
        _jittered(rng, count, horizon - 35.0),
        _dealt(mix, [40.0, 50.0, 60.0], count),
        _dealt(mix, [2.0, 3.0], count),
        _dealt(mix, ["exact", "medium", "exact", "coarse"], count),
        _dealt(mix, ["avg", "min", "max", "sum", "count"], count),
        _dealt(mix, [True] * 3 + [False] * 7, count),
        _dealt(mix, list(range(CHURN_GRID[0] * CHURN_GRID[1])), count),
        mix.uniform(10.0, 30.0, size=count),
        mix.uniform(0.3, 0.9, size=count),
    )
    events = []
    for key, column in enumerate(columns):
        t, radius, period, accuracy, aggregation, leaves, cell, lifetime, share = column
        payload = {
            "radius_m": radius,
            "period_s": period,
            "freshness_s": period / 2.0 if accuracy == "exact" else period,
            "aggregation": aggregation,
            "lifetime_s": float(lifetime),
            "accuracy": accuracy,
            "path": _beat(CHURN_GRID, cell),
        }
        events.append((t, 0, key, payload))
        if leaves:
            events.append((t + float(share * lifetime), 1, key, None))
    events.sort(key=lambda e: e[:3])
    script: List[Op] = []
    for t, kind, key, payload in events:
        script.append(("advance", t))
        script.append(("submit", key, payload) if kind == 0 else ("cancel", key))
    return script


def batch_workload(name: str, seed: int, smoke: bool = False) -> Tuple[Dict, List[Op]]:
    """``(spec dict, script)`` of one batch workload at ``seed``."""
    horizon = horizon_s(name, smoke)
    spec: Dict = {"name": name, "mode": "jit", "seed": seed, "duration_s": horizon}
    if name == "paper1":
        spec["network"] = {"sleep_period_s": 9.0}
        (user,) = _fleet((1, 1), 0.0, 150.0, horizon)
        script = _stepped([dict(user, path=_patrol(PAPER1_TOUR, 2))], horizon)
    elif name == "fleet16":
        script = _stepped(_fleet(FLEET_GRID, 2.5, 60.0, horizon), horizon)
    elif name == "dense48":
        spec["network"] = {"n_nodes": 600}
        script = _stepped(
            _fleet(DENSE_GRID, 0.1, 30.0, horizon, DENSE_PERIOD_S), horizon
        )
    elif name == "churn-mix":
        spec["network"] = {"sleep_period_s": 3.0}
        spec["admission"] = {"policy": "per-area-cap", "max_overlapping": 3}
        spec["faults"] = {
            "blackouts": [
                {
                    "x": 225.0,
                    "y": 225.0,
                    "radius_m": 90.0,
                    "at_s": 0.4 * horizon,
                    "duration_s": 20.0,
                }
            ],
            "degradations": [
                {"at_s": 0.7 * horizon, "duration_s": 10.0, "corruption_prob": 0.3}
            ],
        }
        script = _churn_script(seed, horizon)
    else:
        raise KeyError(f"unknown batch workload {name!r}; expected one of {BATCH}")
    return spec, script


def serve_spec(seed: int, seconds: float) -> Dict:
    """The daemon's world: the paper-default field, long enough for the run."""
    horizon = TIME_SCALE * seconds + 2.0 * PROBE_LIFETIME_S + 60.0
    return {"name": SERVE, "mode": "jit", "seed": seed, "duration_s": horizon}


def serve_arrivals(seed: int, seconds: float) -> List[Tuple[float, Dict]]:
    """Open-loop schedule: ``(due offset in wall seconds, payload)``.

    One arrival at a uniform instant of every ``1 / SERVE_RATE`` slot: an
    even spacing beats against the pump's 62.5 ms slice cadence, so every
    submit would meet the lock at one of three fixed phases; a Poisson
    process moved the number of sessions by 8 % and the daemon's CPU time by
    a quarter between seeds.
    """
    rng = np.random.default_rng([seed, 5])
    count = int(SERVE_RATE * seconds)
    radii = _dealt(rng, [60.0, 100.0], count)
    cells = _dealt(rng, list(range(FLEET_GRID[0] * FLEET_GRID[1])), count)
    return [
        (
            due,
            {
                "radius_m": radius,
                "period_s": PERIOD_S,
                "freshness_s": PERIOD_S / 2.0,
                "lifetime_s": SERVE_LIFETIME_S,
                "path": _beat(FLEET_GRID, cell),
            },
        )
        for due, radius, cell in zip(_jittered(rng, count, seconds), radii, cells)
    ]


def probe_payload() -> Dict:
    """The probe walks paper1's loop: it owns a third of the run's periods, and
    six seeded walks are too few to average out where they happen to lead."""
    return {
        "radius_m": 60.0,
        "period_s": PROBE_PERIOD_S,
        "freshness_s": PROBE_PERIOD_S,
        "lifetime_s": PROBE_LIFETIME_S,
        "path": _patrol(PAPER1_TOUR, 2),
    }
