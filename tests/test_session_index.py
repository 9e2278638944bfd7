"""``SessionIndex`` against the list scans it replaced.

``MobiQueryService`` and the ``ClusterService`` router answer "which user
id does this submission run under?" and "which sessions are live at t?"
from a ``SessionIndex`` whose cost follows the live sessions;
``tests/session_index_oracle.py`` answers them by walking every handle ever
issued, as ``submit`` did until PR 17.  Whatever a client does — submit
under automatic and explicit ids (admission rejections included), cancel,
``release_session_state``, let time pass — both must give the same id, the
same ``ValueError`` and the same live list in the same order.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.api import MobiQueryService, PerAreaCapPolicy, QueryRequest
from repro.api.config import MODE_JIT, ExperimentConfig
from repro.api.service import SessionIndex
from repro.cluster import ClusterService
from repro.geometry.shapes import Rect
from repro.net.network import NetworkConfig

from . import session_index_oracle as oracle
from .mutants import mutate

#: explicit ids are drawn from 0..MAX_ID, so they collide with each other
#: and with the low ids auto-assignment hands out
MAX_ID = 5
HORIZON_S = 60.0


def build(shards):
    """A small world under an area cap tight enough to reject."""
    config = ExperimentConfig(
        mode=MODE_JIT,
        seed=3,
        duration_s=HORIZON_S,
        network=NetworkConfig(
            n_nodes=24, region=Rect.square(220.0), sleep_period_s=3.0
        ),
    )
    admission = PerAreaCapPolicy(max_overlapping=1)
    if shards == 0:
        return MobiQueryService(config, admission=admission)
    return ClusterService(config, shards=shards, admission=admission)


def clock(backend):
    return min(s.sim.now for s in getattr(backend, "services", [backend]))


def outcome(resolve, user_id):
    try:
        return resolve(user_id)
    except ValueError as exc:
        return str(exc)


def check(backend):
    """Every answer of the index, next to the oracle's."""
    index, handles = backend._sessions, backend.handles
    for user_id in (None, *range(MAX_ID + 2)):
        assert outcome(index.assign_user_id, user_id) == outcome(
            lambda uid: oracle.resolve_user_id(handles, uid), user_id
        ), f"user id {user_id}"
    now = clock(backend)
    # present and future first (that is what prunes), then the past
    for at in (now, now + 1.0, now + 7.5, now - 0.5, now / 2.0, 0.0):
        assert backend.live_session_specs(at) == oracle.live_session_specs(
            handles, at
        ), f"live at {at} (now {now})"


def drive(backend, script):
    check(backend)
    for kind, *args in script:
        handles = backend.handles
        if kind == "submit":
            user_id, delay, lifetime = args
            want = outcome(lambda uid: oracle.resolve_user_id(handles, uid), user_id)
            issued = len(handles)
            request = QueryRequest(
                radius_m=60.0,
                period_s=2.0,
                start_s=clock(backend) + delay,
                lifetime_s=lifetime,
                user_id=user_id,
            )
            try:
                handle = backend.submit(request)
            except ValueError as exc:
                # the id collision the oracle foresaw, or a start too
                # close to the horizon; neither issues a handle
                assert len(handles) == issued
                assert str(exc) == want or "no serviceable period" in str(exc)
            else:
                assert isinstance(want, int)
                assert len(handles) == issued + 1 and handles[-1] is handle
                if handle.accepted:
                    assert handle.spec.user_id == want
        elif kind == "advance":
            backend.advance(clock(backend) + args[0])
        elif kind == "release-finished":  # what the serve daemon does
            for handle in handles:
                handle.service.release_session_state(handle)
        elif not handles:
            continue
        elif kind == "cancel":
            backend.cancel(handles[args[0] % len(handles)])
        elif kind == "release":
            handle = handles[args[0] % len(handles)]
            handle.service.release_session_state(handle)
        check(backend)


pick = st.integers(min_value=0, max_value=10**6)
ops = st.one_of(
    st.tuples(
        st.just("submit"),
        st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_ID)),
        st.sampled_from([0.0, 0.0, 1.5, 6.0]),  # start now, soon, later
        st.sampled_from([None, 2.0, 5.0, 9.0]),  # 5 s: ends after its last deadline
    ),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.7, 2.0, 4.5])),
    st.tuples(st.just("cancel"), pick),
    st.tuples(st.just("release"), pick),
    st.tuples(st.just("release-finished"), st.none()),
)
scripts = st.lists(ops, min_size=6, max_size=24)


@pytest.mark.parametrize("shards", [0, 1, 2], ids=["service", "router-1", "router-2"])
@settings(max_examples=40, deadline=None)
@given(script=scripts)
def test_index_answers_like_the_list_scans(shards, script):
    drive(build(shards), script)


#: name -> (``SessionIndex`` method, text to replace, replacement)
MUTATIONS = {
    # auto-assignment hands a cancelled session's id out again
    "ReusesCancelledIds": (
        "assign_user_id",
        "return self._lowest_free",
        "return min(set(range(len(self.handles) + 1)) - {u for u, h in "
        "self._last_admitted.items() if h.status != STATUS_CANCELLED})",
    ),
    # a cancelled session is not pruned from the live list
    "KeepsCancelledLive": (
        "live",
        "if h.status != STATUS_CANCELLED and h.spec.end_s > now",
        "if h.spec.end_s > now",
    ),
    # the ``at < now`` fallback to the full scan is dropped
    "ForgetsThePast": ("live", "if at < now:", "if False:"),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The property above is strong enough to tell: with any of the three
    mutants in the index's place the same generator finds a counterexample."""
    mutate(monkeypatch, SessionIndex, *MUTATIONS[name])

    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate],
    )
    @given(script=scripts)
    def mutated(script):
        drive(build(0), script)

    with pytest.raises(AssertionError):
        mutated()


def test_submit_cost_follows_live_sessions_not_history():
    """What the index is for: after 60 short sessions have come and gone, an
    admission check passes over the few that are live, not the 60."""
    service = MobiQueryService(
        ExperimentConfig(
            mode=MODE_JIT,
            seed=3,
            duration_s=200.0,
            network=NetworkConfig(
                n_nodes=24, region=Rect.square(220.0), sleep_period_s=3.0
            ),
        ),
        admission=PerAreaCapPolicy(max_overlapping=3),
    )
    for _ in range(60):
        service.submit(QueryRequest(radius_m=60.0, period_s=2.0, lifetime_s=2.0))
        service.advance(service.sim.now + 2.5)
    last = service.submit(QueryRequest(radius_m=60.0, period_s=2.0, lifetime_s=2.0))
    assert service.stats().submitted == 61
    assert service._sessions._live == [last]
    assert service._sessions.assign_user_id(None) == 61
