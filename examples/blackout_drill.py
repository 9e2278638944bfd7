#!/usr/bin/env python3
"""Blackout drill: inject a regional outage and read the recovery marks.

A 16-user fleet queries the field while a power failure takes out every
node within 100 m of the field centre for a fifth of the run, with a 30%
radio-corruption window layered on top.  The fault plane is declarative
and deterministic: the plan below is plain data (the ``faults`` key of a
scenario, or ``repro run --faults plan.json``), executed off a dedicated
RNG stream — so the fault-free twin run in the second half is
*bit-identical* to a world with no fault plane at all, and the two runs
only diverge once the first fault fires.

Recovery is the protocol's job, not the injector's: collectors killed by
the outage are re-elected onto surviving backbone nodes (bounded retry +
backoff), reports re-route around dead parents, and periods the protocol
could not serve cleanly are *marked degraded* in the scored session
rather than silently dropped.  The drill prints those marks next to the
fault-free twin so the outage's cost — and the recovery — is visible.

Run:
    python examples/blackout_drill.py
"""

import os

from repro import MobiQueryService, Tracer
from repro.api.scenarios import ScenarioSpec, build_requests

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "90"))


def drill_spec() -> ScenarioSpec:
    """The blackout-recovery drill, fault times scaled to the duration."""
    d = DURATION_S
    return ScenarioSpec(
        name="blackout-drill",
        seed=7,
        duration_s=d,
        faults={
            "blackouts": [
                {"x": 225.0, "y": 225.0, "radius_m": 100.0,
                 "at_s": d / 3, "duration_s": 2 * d / 9}
            ],
            "degradations": [
                {"at_s": d * 35 / 90, "duration_s": d / 18,
                 "corruption_prob": 0.3}
            ],
        },
        requests=(
            {"radius_m": 60.0, "period_s": 2.5, "freshness_s": 1.25,
             "count": 16, "spacing_s": 1.5},
        ),
    )


def run(spec: ScenarioSpec, faults: bool):
    tracer = Tracer(keep=[
        "blackout-start", "blackout-end",
        "degradation-start", "degradation-end",
        "node-crashed", "node-recovered", "collector-reelected",
    ])
    service = MobiQueryService(
        spec.world(), tracer=tracer,
        faults=spec.fault_plan() if faults else None,
    )
    for request in build_requests(spec):
        service.submit(request).require_admitted()
    return service.close(), tracer


def main() -> None:
    spec = drill_spec()
    faulted, tracer = run(spec, faults=True)
    clean, _ = run(spec, faults=False)

    print("Fault timeline (all deterministic, dedicated 'faults' RNG stream):")
    for kind in ("blackout-start", "blackout-end",
                 "degradation-start", "degradation-end"):
        for record in tracer.records(kind):
            print(f"  t={record.time:6.1f}s  {kind:<18} {record.fields}")
    print(f"  nodes crashed/recovered: {tracer.counts['node-crashed']}"
          f"/{tracer.counts['node-recovered']}, collector re-elections: "
          f"{tracer.counts['collector-reelected']}\n")

    print("Reading the degradation marks — periods the protocol could not")
    print("serve cleanly during the outage are counted per session, never")
    print("silently dropped (SessionResult.degraded_periods):\n")
    print(" user  degraded  success(drill)  success(no-fault)")
    print(" ----  --------  --------------  -----------------")
    clean_by_user = {s.user_id: s for s in clean.sessions}
    for session in faulted.sessions:
        twin = clean_by_user[session.user_id]
        marker = "  <- outage path" if session.degraded_periods else ""
        print(f" {session.user_id:>4}  {session.degraded_periods:>8}  "
              f"{session.success_ratio:14.3f}  "
              f"{twin.success_ratio:17.3f}{marker}")

    print(f"\nfleet mean success: {faulted.mean_success_ratio():.3f} under "
          f"the drill vs {clean.mean_success_ratio():.3f} fault-free")
    degraded = sum(s.degraded_periods for s in faulted.sessions)
    print(f"degraded periods : {degraded} across "
          f"{sum(1 for s in faulted.sessions if s.degraded_periods)} sessions")
    print("\nThe same drill is pinned as a benchmark gate "
          "(benchmarks/test_blackout_recovery.py): post-recovery success "
          "must stay within 5 pp of the fault-free twin.")


if __name__ == "__main__":
    main()
