#!/usr/bin/env python3
"""Firefighter scenario — the paper's motivating application.

A fireman crosses a sensor field instrumented with temperature sensors
while two fire fronts grow and drift.  His handheld proxy issues a
spatiotemporal MAX query: "every 2 seconds, the hottest reading within
150 m of me, at most 1 second old".  Just-in-time prefetching keeps the
answers flowing even though the sensors sleep 98.9% of the time, and the
hot-spot readings visibly rise as his route passes near the fronts.

This example wires the library's layers together explicitly (instead of
describing the run as a ``ScenarioSpec``) to show the composable API:
network + CCP + routing + MobiQuery protocol + planner-provided motion
profiles.

Run:
    python examples/firefighter.py
"""

import os

from repro.core.gateway import MobiQueryGateway
from repro.core.metrics import build_session_metrics
from repro.core.query import Aggregation, QuerySpec
from repro.core.service import MobiQueryConfig, MobiQueryProtocol
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path
from repro.mobility.planner import FullKnowledgeProvider
from repro.net.field import fire_scenario_field
from repro.net.network import NetworkConfig, build_network
from repro.net.node import MobileEndpoint
from repro.net.routing import GeoRouter
from repro.power.ccp import CcpProtocol
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

#: override for quick smoke runs (CI examples-smoke)
DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "160"))


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(2026)

    # --- the burning sensor field -----------------------------------
    field = fire_scenario_field(region_side=450.0)
    network_config = NetworkConfig(sleep_period_s=9.0)
    # the network's channel is the world's wiring point: every component
    # below takes the kernel and the tracer from it
    network = build_network(sim, network_config, streams, field_model=field)
    CcpProtocol().apply(network, streams)
    print(f"CCP backbone: {len(network.active_nodes)}/{network_config.n_nodes} "
          f"nodes stay awake")

    # --- the fireman's route (he knows where he is heading) ----------
    route = patrol_path(
        [Vec2(40, 40), Vec2(220, 120), Vec2(360, 300), Vec2(200, 380)],
        speed=4.0,
    )
    proxy = MobileEndpoint(
        node_id=90_000,
        channel=network.channel,
        rng=streams.stream("proxy"),
        position_fn=route.position_at,
    )
    network.channel.register_mobile(proxy)

    # --- the spatiotemporal query ------------------------------------
    spec = QuerySpec(
        attribute="temperature",
        aggregation=Aggregation.MAX,
        radius_m=150.0,
        period_s=2.0,
        freshness_s=1.0,
        lifetime_s=DURATION_S,
    )
    protocol = MobiQueryProtocol(network, GeoRouter(network),
                                 MobiQueryConfig(prefetch_policy="jit"))
    gateway = MobiQueryGateway(
        proxy, network, spec, protocol, FullKnowledgeProvider(route, DURATION_S)
    )
    gateway.start()

    print("Fireman advancing at 4 m/s; querying MAX temperature "
          f"in a {spec.radius_m:.0f} m disk every {spec.period_s:.0f} s...\n")
    sim.run(until=DURATION_S + 0.5)

    # --- the temperature picture he saw ------------------------------
    metrics = build_session_metrics(gateway, network, spec, route, DURATION_S)
    print(" t(s)   position          hottest reading   fidelity")
    print(" ----   ---------------   ---------------   --------")
    for record in metrics.records:
        if record.k % 5 != 0:
            continue
        pos = record.user_position
        value = "   (missed)" if record.value is None else f"{record.value:9.1f} C"
        print(f" {record.deadline:5.0f}   ({pos.x:5.0f}, {pos.y:5.0f})   "
              f"{value}       {record.fidelity:6.1%}")

    peak = max((r.value for r in metrics.records if r.value is not None))
    print(f"\nHottest reading on the route: {peak:.1f} C")
    print(f"Success ratio: {metrics.success_ratio():.1%}  "
          f"(fidelity >= 95% and on-time)")
    print(f"Mean power per sleeping sensor: "
          f"{__import__('repro').measure_power(network).mean_sleeper_power_w * 1000:.0f} mW")


if __name__ == "__main__":
    main()
