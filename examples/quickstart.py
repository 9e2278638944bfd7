#!/usr/bin/env python3
"""Quickstart: submit one query to the service and stream its results.

A user walks through a 200-node sensor field asking the MobiQuery
service: "every 2 seconds, give me the average temperature within 150 m
of wherever I am, aggregated from readings at most 1 second old".  The
network duty-cycles at 1.1% (100 ms awake per 9 s); just-in-time
prefetching wakes exactly the right nodes at the right time.

This is the three-step service API:

1. build a ``MobiQueryService`` (the world: network + kernel + protocol),
2. ``submit()`` a ``QueryRequest`` and get back a session handle,
3. iterate ``handle.results()`` — each outcome arrives as its period's
   deadline passes on the simulated clock.

Run:
    python examples/quickstart.py
"""

import os

from repro import ExperimentConfig, MobiQueryService, QueryRequest, MODE_JIT
from repro.core.metrics import StorageTracker

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "120"))


def main() -> None:
    service = MobiQueryService(
        ExperimentConfig(
            mode=MODE_JIT,  # the paper's just-in-time prefetching
            seed=7,
            duration_s=DURATION_S,
        )
    )
    print(f"Backbone: {service.backbone_size} of "
          f"{service.config.network.n_nodes} nodes stay awake (CCP)")
    # Storage cost (Section 5.2) is read off the trace: trees created
    # and released, collectors assigned ahead of the user's period (each
    # assignment record carries its session's spec, so the tracker knows
    # every session's clock without being told).
    storage = StorageTracker(service.tracer)

    handle = service.submit(
        QueryRequest(
            attribute="temperature",
            radius_m=150.0,   # Rq
            period_s=2.0,     # Tperiod
            freshness_s=1.0,  # Tfresh
        )
    )
    print(f"Session admitted: user {handle.user_id}, query {handle.query_id}\n")

    print(" k   deadline  value    on-time  contributors")
    print(" --  --------  -------  -------  ------------")
    for outcome in handle.results():  # advances the simulated clock
        value = "-" if outcome.value is None else f"{outcome.value:7.2f}"
        print(f" {outcome.k:>2}  {outcome.deadline:7.1f}s  {value:>7}  "
              f"{'yes' if outcome.on_time else 'NO':>7}  "
              f"{outcome.contributors:>12}")

    result = handle.result()  # the scored session
    metrics = result.metrics
    print(f"\nSuccess ratio (deadline met & fidelity >= 95%): "
          f"{metrics.success_ratio():.1%}")
    print(f"Mean data fidelity: {metrics.mean_fidelity():.1%}")
    print(f"Warmup periods at session start: "
          f"{metrics.warmup_periods_observed()}")
    print(f"Max trees prefetched ahead of the user: "
          f"{storage.max_prefetch_length}")
    print(f"Frames on air: {service.network.channel.frames_sent}")


if __name__ == "__main__":
    main()
