"""A scenario is checked once, at load, by the code that builds each value.

``ScenarioSpec`` builds at load everything that is cheap to build: its
world (``ExperimentConfig`` and ``NetworkConfig``), its admission policy,
its fault plan and each template's request (path or walk included).  So
a bad value is refused by ``ScenarioSpec.from_dict`` with the message of
the builder that refuses it, not later at ``build_backend``, at submit or
inside a sweep cell.  Each probe below names that builder; the test
checks that loading the spec raises exactly the builder's message.

Before a value reaches its builder, its JSON type is checked by the one
plain-data loader (``repro.plain``): the second table holds values of the
wrong type, ``NaN`` and ``Infinity`` among them, each refused by the entry
point that loads it with one sentence naming the key and the value.
"""

import pytest

from repro.api.admission import make_admission_policy
from repro.api.requests import QueryRequest
from repro.api.scenarios import ScenarioSpec, request_from_payload
from repro.faults.plan import FaultPlan
from repro.net.network import NetworkConfig
from repro.plain import checked


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
        lambda: checked(
            QueryRequest, {"aggregation": "median"}, "scenario requests[0]"
        ),
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
    "patrol-without-loops": (
        template(path={"kind": "patrol", "waypoints": [[10, 10], [50, 10]], "loops": 0}),
        lambda: request_from_payload(
            {"path": {"kind": "patrol", "waypoints": [[10, 10], [50, 10]], "loops": 0}}
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



def logged_decision(data):
    """The op log's decision loader (``repro replay``)."""
    from repro.api.admission import AdmissionDecision
    from repro.plain import load

    return load(AdmissionDecision, data, "decision")


def spec(**values):
    return lambda: ScenarioSpec.from_dict({"name": "probe", **values})


def in_template(**values):
    return spec(requests=[values])


def patrol(**values):
    beat = {"kind": "patrol", "waypoints": [[10, 10], [50, 10]], **values}
    return lambda: request_from_payload({"path": beat})


def phase_assign(**values):
    return lambda: make_admission_policy({"policy": "phase-assign", **values})


NAN, INF = float("nan"), float("inf")

#: probe -> (the entry point's call, its one-sentence refusal)
WRONG_TYPES = {
    "spec-seed-bool": (spec(seed=True), "scenario seed must be an integer, got True"),
    "spec-seed-string": (spec(seed="1"), "scenario seed must be an integer, got '1'"),
    "spec-name-number": (
        lambda: ScenarioSpec.from_dict({"name": 5}),
        "scenario name must be a string, got 5",
    ),
    "spec-duration-nan": (
        spec(duration_s=NAN), "scenario duration_s must be a finite number, got nan",
    ),
    "spec-duration-infinite": (
        spec(duration_s=INF), "scenario duration_s must be a finite number, got inf",
    ),
    "spec-edge-rate-nan": (
        spec(edge_rate=NAN), "scenario edge_rate must be a finite number, got nan",
    ),
    "spec-requests-object": (
        spec(requests={"radius_m": 60.0}),
        "scenario requests must be an array, got {'radius_m': 60.0}",
    ),
    "network-n-nodes-fraction": (
        spec(network={"n_nodes": 200.5}),
        "network n_nodes must be an integer, got 200.5",
    ),
    "network-comm-range-nan": (
        spec(network={"comm_range_m": NAN}),
        "network comm_range_m must be a finite number, got nan",
    ),
    "template-radius-nan": (
        in_template(radius_m=NAN),
        "scenario requests[0] radius_m must be a finite number, got nan",
    ),
    "template-radius-bool": (
        in_template(radius_m=True),
        "scenario requests[0] radius_m must be a finite number, got True",
    ),
    "template-radius-string": (
        in_template(radius_m="big"),
        "scenario requests[0] radius_m must be a finite number, got 'big'",
    ),
    "template-start-nan": (
        in_template(start_s=NAN),
        "scenario requests[0] start_s must be a finite number, got nan",
    ),
    "template-lifetime-nan": (
        in_template(lifetime_s=NAN),
        "scenario requests[0] lifetime_s must be a finite number, got nan",
    ),
    "template-user-id-bool": (
        in_template(user_id=True),
        "scenario requests[0] user_id must be an integer, got True",
    ),
    "template-spacing-nan": (
        in_template(count=2, spacing_s=NAN),
        "scenario requests[0] spacing_s must be a finite number, got nan",
    ),
    "payload-radius-nan": (
        lambda: request_from_payload({"radius_m": NAN, "lifetime_s": 10.0}),
        "request-payload radius_m must be a finite number, got nan",
    ),
    "patrol-speed-string": (
        patrol(speed="3"), "patrol path speed must be a finite number, got '3'",
    ),
    "patrol-waypoint-nan": (
        patrol(waypoints=[[10, 10], [NAN, 10]]),
        "patrol path waypoints[1][0] must be a finite number, got nan",
    ),
    "admission-slots-fraction": (
        phase_assign(slots=2.5),
        "phase-assign admission slots must be an integer, got 2.5",
    ),
    "admission-slots-string": (
        phase_assign(slots="4"),
        "phase-assign admission slots must be an integer, got '4'",
    ),
    "admission-cap-bool": (
        lambda: make_admission_policy(
            {"policy": "per-area-cap", "max_overlapping": True}
        ),
        "per-area-cap admission max_overlapping must be an integer, got True",
    ),
    "admission-inner-string": (
        phase_assign(inner="per-area-cap"),
        "phase-assign admission inner must be an object, got 'per-area-cap'",
    ),
    "crash-node-fraction": (
        lambda: FaultPlan.from_dict({"crashes": [{"node_id": 3.5, "at_s": 1.0}]}),
        "fault plan crashes[0] node_id must be an integer, got 3.5",
    ),
    "crashes-object": (
        lambda: FaultPlan.from_dict({"crashes": {"_": 1}}),
        "fault plan crashes must be an array, got {'_': 1}",
    ),
    "blackout-x-nan": (
        lambda: FaultPlan.from_dict({"blackouts": [
            {"x": NAN, "y": 0.0, "radius_m": 50.0, "at_s": 1.0, "duration_s": 5.0}
        ]}),
        "fault plan blackouts[0] x must be a finite number, got nan",
    ),
    "decision-admitted-string": (
        lambda: logged_decision({"admitted": "false"}),
        "decision admitted must be true or false, got 'false'",
    ),
}


@pytest.mark.parametrize("probe", sorted(WRONG_TYPES))
def test_a_wrong_json_type_is_refused_by_the_entry_point_that_loads_it(probe):
    load, message = WRONG_TYPES[probe]
    with pytest.raises(ValueError) as refused:
        load()
    assert str(refused.value) == message
