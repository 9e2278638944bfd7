#!/usr/bin/env python3
"""Patrol fleet — N robots querying one shared sensor field concurrently.

A security fleet patrols a 450 m x 450 m sensor field: each robot loops a
rectangular beat at walking speed, continuously asking "average hazard
reading within 60 m of me, every 2 s, data at most 1 s old".  All robots
share one network, one duty-cycling backbone and one protocol instance —
their query trees coexist on the same nodes, keyed by ``(user_id,
query_id)`` — and the fleet is dispatched one robot every few seconds,
which also desynchronises the report bursts of neighbouring beats.

This is the quickstart for the **service API** with custom motion: each
robot is one ``QueryRequest`` carrying its own patrol path, submitted to
a shared ``MobiQueryService``.  Midway through the run one robot is
recalled — ``handle.cancel()`` tears down every piece of its in-network
state (collector chain, query trees, buffered setups) while the rest of
the fleet keeps patrolling.

The same fleet also exists declaratively: ``repro scenario patrol-fleet``.

Run:
    python examples/patrol_fleet.py
"""

import os

from repro import ExperimentConfig, MobiQueryService, QueryRequest, MODE_JIT
from repro.core.query import Aggregation
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path

NUM_ROBOTS = 6
DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "90"))
PATROL_SPEED_MPS = 4.0
QUERY_RADIUS_M = 60.0
DISPATCH_SPACING_S = 2.5
RECALL_ROBOT = 4          # recalled to base mid-run
RECALL_AT_S = DURATION_S / 2


def beat_waypoints(index: int) -> list:
    """Rectangular beats tiling the field, one per robot (wrap after 6)."""
    col, row = index % 3, (index // 3) % 2
    x0, y0 = 40.0 + col * 130.0, 50.0 + row * 190.0
    w, h = 110.0, 150.0
    return [
        Vec2(x0, y0),
        Vec2(x0 + w, y0),
        Vec2(x0 + w, y0 + h),
        Vec2(x0, y0 + h),
        Vec2(x0, y0),
    ]


def main() -> None:
    print(f"Dispatching {NUM_ROBOTS} patrol robots onto one shared field...")
    service = MobiQueryService(
        ExperimentConfig(mode=MODE_JIT, seed=11, duration_s=DURATION_S)
    )
    print(f"Backbone: {service.backbone_size} of "
          f"{service.config.network.n_nodes} nodes stay awake (CCP)")

    handles = []
    for robot in range(NUM_ROBOTS):
        start = robot * DISPATCH_SPACING_S
        handle = service.submit(
            QueryRequest(
                attribute="hazard",
                aggregation=Aggregation.AVG,
                radius_m=QUERY_RADIUS_M,
                period_s=2.0,
                freshness_s=1.0,
                start_s=start,
                path=patrol_path(
                    beat_waypoints(robot), speed=PATROL_SPEED_MPS, loops=4
                ),
            )
        )
        handles.append(handle)
        print(f"  robot {handle.user_id}: beat at {beat_waypoints(robot)[0]}, "
              f"dispatched t={start:.1f}s")

    # Patrol until mid-run, then recall one robot: cancel() releases all
    # of its in-network state while the rest of the fleet keeps going.
    service.advance(RECALL_AT_S)
    recalled = handles[RECALL_ROBOT]
    recalled.cancel()
    key = recalled.session_key
    print(f"\nRecalled robot {recalled.user_id} at t={RECALL_AT_S:.0f}s: "
          f"{service.protocol.tree_state_count(session=key)} tree states, "
          f"{len(service.protocol.live_collector_periods(session=key))} "
          f"collectors left in-network (all torn down)")

    result = service.finalize()

    print("\n robot  status     start  periods  success  fidelity")
    print(" -----  ---------  -----  -------  -------  --------")
    for handle, session in zip(handles, result.sessions):
        m = session.metrics
        print(f" {session.user_id:>5}  {handle.status:<9}  "
              f"{session.start_s:4.1f}s  {m.num_periods:>7}  "
              f"{m.success_ratio():6.1%}  {m.mean_fidelity():7.1%}")
    print(f"\nFleet mean success ratio: {result.mean_success_ratio():.1%}")
    print(f"Fleet worst user        : {result.min_success_ratio():.1%}")
    channel = service.network.channel
    print(f"Frames on air: {channel.frames_sent}, "
          f"collided receptions: {channel.frames_collided}")
    # drain the 2 s state-GC grace past the last deadlines
    service.advance(DURATION_S + 3.0)
    print(f"Live in-network sessions after the run: "
          f"{len(service.protocol.active_sessions())} (all state GC'd)")


if __name__ == "__main__":
    main()
