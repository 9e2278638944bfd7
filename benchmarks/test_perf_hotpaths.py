"""Hot-path determinism pins and the reception event-structure contract.

Runs the canonical scenarios (the fig4 single-user setting, the 16-user
scaling point, and the heterogeneous-mix service-façade run) once each
and enforces two properties:

* **Determinism**: each scenario's result fingerprint (frame counts, mean
  success) and event-count fingerprint must equal the pinned quick-scale
  values — a perf "win" that changes what the simulation computes fails
  here, and one that repacks kernel events must re-pin
  ``EVENT_FINGERPRINTS`` deliberately.
* **Event structure**: reception end-of-airtime kernel events scale
  O(frames), not O(frames x listeners) — the batching contract of the
  reception pipeline, asserted by a direct event census below.

How fast they run is the perf ledger's business (``python3 -m bench``,
``bench/README.md``), not this file's.
"""

from repro.experiments.perf import (
    RESULT_FINGERPRINTS,
    fingerprint_mismatches,
    run_perf_suite,
)
from repro.geometry.vec import Vec2
from repro.net.channel import Channel
from repro.net.node import SensorNode
from repro.net.packet import BROADCAST, Frame
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams


def test_perf_hotpaths(once):
    report = once(run_perf_suite)
    assert set(report["scenarios"]) == set(RESULT_FINGERPRINTS)
    # Determinism: speed may vary by machine, results may not.
    mismatches = fingerprint_mismatches(report)
    assert not mismatches, "\n".join(mismatches)


def _census_run(n_nodes: int, frames: int):
    """Drive ``frames`` broadcasts through one MAC on an ``n_nodes`` clique
    and count end-of-airtime events as they are scheduled."""
    sim = Simulator()
    channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
    streams = RandomStreams(11)
    nodes = []
    for i in range(n_nodes):
        # 2 m spacing: every node hears every frame (maximal cohort).
        node = SensorNode(i, Vec2(2.0 * i, 0.0), sim, channel,
                         streams.stream(f"mac-{i}"))
        channel.register_static(node)
        nodes.append(node)
    finish_events = 0
    original = sim.schedule_fast

    def counting_schedule_fast(delay, fn, *args):
        nonlocal finish_events
        if getattr(fn, "__name__", "") == "_finish_transmission":
            finish_events += 1
        original(delay, fn, *args)

    sim.schedule_fast = counting_schedule_fast  # type: ignore[method-assign]
    for _ in range(frames):
        nodes[0].send(Frame("census", 0, BROADCAST, 200))
    sim.run(until=30.0)
    assert channel.frames_sent == frames
    assert channel.frames_delivered == frames * (n_nodes - 1)
    return finish_events, sim.events_executed


def test_reception_events_scale_with_frames_not_listeners():
    """The batching contract: ONE end-of-airtime kernel event per frame,
    and total kernel events independent of the listener-cohort size.

    Before the batch pipeline a frame's receiver-side work was at least
    proportional to listeners in allocated objects; this census pins the
    event-count side: a 20-listener clique costs exactly the same kernel
    events as a 6-listener one for the same frame sequence.
    """
    frames = 40
    finish_small, events_small = _census_run(6, frames)
    finish_large, events_large = _census_run(20, frames)
    assert finish_small == frames  # O(frames), not O(frames x listeners)
    assert finish_large == frames
    assert events_small == events_large
    # Per broadcast frame: one MAC attempt + one end-of-airtime batch
    # event (the MAC completion rides the latter).  Everything beyond that
    # would be per-listener leakage.
    assert events_small <= 2 * frames
