"""A stepped daemon's world holds the sessions live now, no more.

The pump retires a session the moment its last outcome is harvested, so
after every ``pump_step()`` the mobiles registered on each shard's channel
are exactly that shard's live admitted sessions — whatever mix of completed,
cancelled and rejected sessions came before — and once the last session is
done nothing keyed by a session is left in any world, *before*
``finish()`` sweeps.  The log, ``retire`` ops included, replays bit for
bit, and so does a WAL cut right after any ``retire`` line.
"""

import pytest

from repro.api.scenarios import ScenarioSpec
from repro.cli import main
from repro.faults.sweep import leak_census
from repro.serve.daemon import ServeApp
from repro.serve.log import read_log, verify_log
from repro.workload.session import proxy_id_for

WAVES = 25
WAVE_SIZE = 8  # 200 sessions
#: three beats share a wave's eight sessions under a cap of two overlapping
#: neighbours: the third arrival on a beat is rejected
BEATS = [(80.0, 80.0), (310.0, 120.0), (150.0, 320.0)]


def spec(shards):
    return ScenarioSpec.from_dict(
        {
            "name": "steady",
            "mode": "jit",
            "seed": 4,
            "duration_s": 400.0,
            "shards": shards,
            "network": {"n_nodes": 60, "sleep_period_s": 3.0},
            "admission": {"policy": "per-area-cap", "max_overlapping": 2},
            "requests": [],
        }
    )


def payload(wave, slot):
    x, y = BEATS[slot % len(BEATS)]
    x += 20.0 * (slot // len(BEATS))
    return {
        "radius_m": 50.0,
        "period_s": 2.0,
        "freshness_s": 1.0,
        "lifetime_s": 4.0 + 2.0 * (wave % 2),  # two or three periods
        "path": {
            "kind": "patrol",
            "waypoints": [[x, y], [x + 30.0, y], [x + 30.0, y + 30.0], [x, y]],
            "speed": 3.0,
            "loops": 2,
        },
    }


def registered(app):
    """Per shard world: (proxy ids on the channel, proxy ids of live sessions)."""
    pairs = []
    for service in app._services():
        live = {
            proxy_id_for(sess.handle.spec.user_id)
            for sess in app._live.values()
            if sess.handle.service is service
        }
        pairs.append((set(service.network.channel.mobile_ids()), live))
    return pairs


#: rejected, cancelled and retired of the 200 submits, on one shard or two:
#: the test steps the clock in its own thread, so every run makes the same calls
REJECTED, CANCELLED, RETIRED = 50, 42, 108


@pytest.mark.parametrize("shards", [1, 2])
def test_registered_mobiles_are_the_live_sessions(shards, tmp_path):
    wal = tmp_path / "steady.wal"
    app = ServeApp(spec(shards), time_scale=0.0, wal_path=str(wal))
    steps, violations, statuses = 0, [], []
    for wave in range(WAVES):
        admitted = []
        for slot in range(WAVE_SIZE):
            resp = app.submit("soak", payload(wave, slot))
            statuses.append(resp["status"])
            if resp["status"] == "admitted":
                admitted.append(resp["session"])
        for sid in admitted[wave % 3 :: 4]:  # a couple a wave, at any age
            app.cancel("soak", sid)
        stats = app.stats_payload()["server"]
        assert stats["world"]["registered_mobiles"] == stats["sessions"]["live"]
        # the wave runs out before the next arrives
        while app.pump_step() is not None:
            steps += 1
            for on_channel, live in registered(app):
                if on_channel != live:
                    violations.append((app._now(), on_channel, live))
    app.begin_drain()
    assert app.pump_step() is None  # nothing is live
    assert not violations, violations[:3]
    assert steps > WAVES

    stats = app.stats_payload()
    sessions = stats["server"]["sessions"]
    assert statuses.count("rejected") == stats["rejected"] == REJECTED
    assert stats["cancelled"] == CANCELLED
    assert sessions["retired"] == stats["admitted"] - stats["cancelled"] == RETIRED
    assert sessions["live"] == stats["server"]["world"]["registered_mobiles"] == 0

    # nothing keyed by a session is left in any world, before finish() sweeps
    with app._work:
        for service in app._services():
            leaks = leak_census(service)
            assert leaks == {key: 0 for key in leaks}, leaks

    summary = app.finish()
    assert summary["leak_total"] == 0, summary["leaks"]
    log = read_log(app.log.wal_path)
    ops = [op["op"] for op in log["ops"]]
    assert ops.count("submit") == len(statuses) == WAVES * WAVE_SIZE
    assert ops.count("cancel") == CANCELLED
    # every admitted session that was not cancelled ran out and was retired
    assert ops.count("retire") == RETIRED
    log["fingerprints"] = summary["fingerprints"]
    ok, recorded, replayed = verify_log(log)
    assert ok, f"replay diverged:\nlive    {recorded}\nreplay  {replayed}"

    # a daemon killed right after any retire leaves a replayable prefix
    lines = wal.read_text(encoding="utf-8").splitlines(keepends=True)
    retires = [i for i, line in enumerate(lines) if '"op": "retire"' in line]
    assert len(retires) == ops.count("retire")
    cut = tmp_path / "cut.wal"
    cut.write_text("".join(lines[: retires[len(retires) // 3] + 1]), encoding="utf-8")
    assert main(["replay", str(cut)]) == 0
