"""Cluster scale-out smoke: single-shard identity + pinned fingerprints.

The cluster's load-bearing guarantee is that sharding is *transparent*:
``ClusterService(shards=1)`` computes bit-for-bit what a single
``MobiQueryService`` computes, and the sharded layout is deterministic.
This module gates both at quick scale and prints the sharded-vs-single
wall-clock ratio of its one run of each layout, as information only
(usually a speedup even in-process: four 50-node worlds do less per-frame
work than one 200-node world; worker processes widen it on multi-core
machines).
"""

import pytest

from repro.api.scenarios import run_scenario
from repro.cluster import ClusterService
from repro.experiments.perf import (
    CLUSTER_RESULT_FINGERPRINTS,
    cluster_fingerprint_mismatches,
    cluster_scenario,
    run_cluster_suite,
)


class TestClusterScaleSmoke:
    def test_quick_scale_suite_matches_pins(self, emit):
        """The 64-user scenario: shards=1 must reproduce the pinned
        MobiQueryService fingerprint; shards=4 must reproduce its own."""
        report = run_cluster_suite(scale="quick")
        single, sharded = report["shards1"], report["shards4"]
        emit(
            f"{report['scenario']} (quick): one world {single['wall_s']:.2f} s, "
            f"4 shards {sharded['wall_s']:.2f} s "
            f"(workers {'on' if sharded['parallel_used'] else 'off'}) — "
            f"{single['wall_s'] / sharded['wall_s']:.2f}x, one sample each"
        )
        mismatches = cluster_fingerprint_mismatches(report)
        assert mismatches == [], "\n".join(mismatches)
        assert single["shards"] == 1

    def test_pins_cover_both_layouts(self):
        for key in ("shards1", "shards4"):
            pin = CLUSTER_RESULT_FINGERPRINTS[key]
            assert {"frames_sent", "frames_delivered", "mean_success"} <= set(pin)

    def test_single_shard_identity_off_pin(self):
        """Identity holds away from the pinned seed/duration too."""
        spec = cluster_scenario("quick").with_overrides(
            duration_s=16.0, seed=7, shards=1, workers=0
        )
        small = spec.to_dict()
        small["requests"] = [{**dict(spec.requests[0]), "count": 6}]
        spec = type(spec).from_dict(small)
        single = run_scenario(spec)
        from repro.api.scenarios import _scenario_config

        cluster = run_scenario(
            spec, backend=ClusterService(_scenario_config(spec), shards=1)
        )
        assert (
            cluster.frames_sent,
            cluster.frames_delivered,
            cluster.events_executed,
        ) == (single.frames_sent, single.frames_delivered, single.events_executed)
        assert [s.success_ratio for s in cluster.workload.sessions] == [
            s.success_ratio for s in single.workload.sessions
        ]
