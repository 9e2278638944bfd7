"""A scenario is checked once, at load, by the code that builds each value.

``ScenarioSpec`` builds at load everything that is cheap to build: its
world (``ExperimentConfig`` and ``NetworkConfig``), its admission policy,
its fault plan and each template's request (path or walk included).  So
a bad value is refused by ``ScenarioSpec.from_dict`` with the message of
the builder that refuses it, not later at ``build_backend``, at submit or
inside a sweep cell.  Each probe below names that builder; the test
checks that loading the spec raises exactly the builder's message.
"""

import pytest

from repro.api.admission import make_admission_policy
from repro.api.requests import QueryRequest
from repro.api.scenarios import ScenarioSpec, request_from_payload
from repro.net.network import NetworkConfig


def np_coarse():
    from repro.api.config import check_accuracy_served

    check_accuracy_served("np", "coarse")


def template(**values):
    return {"name": "probe", "requests": [values]}


def network(**values):
    return {"name": "probe", "network": values}


def admission(**values):
    return {"name": "probe", "admission": values}


#: probe name -> (a spec dict, the builder call that refuses its bad value)
PROBES = {
    "radius": (template(radius_m=-5), lambda: QueryRequest(radius_m=-5)),
    "freshness-above-period": (
        template(freshness_s=3), lambda: QueryRequest(freshness_s=3),
    ),
    "lifetime-under-period": (
        template(lifetime_s=1), lambda: QueryRequest(lifetime_s=1),
    ),
    "start": (template(start_s=-1), lambda: QueryRequest(start_s=-1)),
    "user-id": (template(user_id=-1), lambda: QueryRequest(user_id=-1)),
    "profile-mode": (
        template(profile_mode="bogus"), lambda: QueryRequest(profile_mode="bogus"),
    ),
    "aggregation": (
        template(aggregation="median"),
        lambda: request_from_payload({"aggregation": "median"}),
    ),
    "accuracy": (
        template(accuracy="fuzzy"), lambda: QueryRequest(accuracy="fuzzy"),
    ),
    "one-waypoint-patrol": (
        template(path={"kind": "patrol", "waypoints": [[10, 10]]}),
        lambda: request_from_payload(
            {"path": {"kind": "patrol", "waypoints": [[10, 10]]}}
        ),
    ),
    "backwards-speed-range": (
        template(path={"kind": "random", "speed_range": [5, 1]}),
        lambda: request_from_payload(
            {"path": {"kind": "random", "speed_range": [5, 1]}}
        ),
    ),
    "n-nodes": (network(n_nodes=-5), lambda: NetworkConfig(n_nodes=-5)),
    "comm-range": (network(comm_range_m=0), lambda: NetworkConfig(comm_range_m=0)),
    "bitrate": (network(bitrate_bps=0), lambda: NetworkConfig(bitrate_bps=0)),
    "active-window": (
        network(active_window_s=20), lambda: NetworkConfig(active_window_s=20),
    ),
    "sleep-period": (
        network(sleep_period_s=-1), lambda: NetworkConfig(sleep_period_s=-1),
    ),
    "admission-policy": (
        admission(policy="bogus"),
        lambda: make_admission_policy({"policy": "bogus"}),
    ),
    "area-cap": (
        admission(policy="per-area-cap", max_overlapping=-1),
        lambda: make_admission_policy(
            {"policy": "per-area-cap", "max_overlapping": -1}
        ),
    ),
    "admission-key": (
        admission(policy="per-area-cap", cap=2),
        lambda: make_admission_policy({"policy": "per-area-cap", "cap": 2}),
    ),
    "inner-policy": (
        admission(policy="phase-assign", inner={"policy": "bogus"}),
        lambda: make_admission_policy(
            {"policy": "phase-assign", "inner": {"policy": "bogus"}}
        ),
    ),
    "np-coarse": (
        {"name": "probe", "mode": "np", "requests": [{"accuracy": "coarse"}]},
        np_coarse,
    ),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_bad_value_is_refused_at_load_with_its_builders_message(probe):
    data, builder = PROBES[probe]
    with pytest.raises(ValueError) as built:
        builder()
    with pytest.raises(ValueError) as loaded:
        ScenarioSpec.from_dict(data)
    assert str(loaded.value) == str(built.value)


@pytest.mark.parametrize(
    "config, bad_key",
    [
        ({"policy": "accept-all", "slots": 2}, "slots"),
        ({"policy": "per-area-cap", "cap": 2}, "cap"),
        ({"policy": "phase-assign", "slots": 2, "max_overlapping": 1}, "max_overlapping"),
        (
            {"policy": "phase-assign", "inner": {"policy": "per-area-cap", "bogus": 1}},
            "bogus",
        ),
    ],
)
def test_an_admission_dict_refuses_an_unknown_key_at_every_level(config, bad_key):
    with pytest.raises(ValueError, match=f"admission key {bad_key!r}"):
        make_admission_policy(config)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"sleep_period_s": 0.0}, "sleep period must be > 0 s, got 0"),
        ({"sleep_period_s": -1.0}, "sleep period must be > 0 s, got -1"),
        ({"active_window_s": 0.0}, "active window must be in"),
        ({"active_window_s": 9.0}, "active window must be in"),
        ({"sleep_period_s": 3.0, "active_window_s": 5.0}, "active window must be in"),
        ({"bitrate_bps": 0.0}, "bitrate must be > 0, got 0"),
    ],
)
def test_network_values_are_refused_where_the_world_is_described(values, message):
    with pytest.raises(ValueError, match=message):
        NetworkConfig(**values)

