"""The accuracy/energy frontier: coarse summaries vs the exact protocol.

The ``uav-survey`` scenario is the frontier's pinned witness: four
survey UAVs sweep the field at 12 m/s with 70 m disks every 3 s — fast
enough that the exact protocol pays heavy collection traffic keeping up.
The same workload at ``accuracy="coarse"`` answers every period from
the in-network summary plane instead.  This module gates the frontier:

* **frames** — coarse must cut frames on air by at least 2x vs the
  exact twin (in practice it sends *zero* new frames: summaries ride
  the existing beacon/report traffic);
* **honesty** — every coarse answer must sit within its own declared
  ``error_bound`` of the exact twin's answer for the same period;
* **health** — the coarse leg still scores full delivery success, and
  nothing is silently stale (the scenario's 3 s duty cycle keeps
  summaries inside the freshness bound).

Run with ``make approx-smoke`` (its own CI job).
"""

import pytest

from repro.api.scenarios import get_scenario, run_scenario

#: declared-vs-observed error comparisons tolerate only float noise
_EPS = 1e-9

#: the frontier gate: exact must spend at least this many times the
#: frames the coarse leg spends (guarded against a zero-frame coarse leg)
FRONTIER_FRAME_RATIO = 2.0


def run_legs():
    spec = get_scenario("uav-survey")
    coarse = run_scenario(spec)  # the scenario's native accuracy
    exact = run_scenario(spec, accuracy="exact")
    return spec, coarse, exact


@pytest.fixture(scope="module")
def legs():
    return run_legs()


class TestApproxFrontier:
    def test_coarse_cuts_frames_at_least_2x(self, legs, emit):
        spec, coarse, exact = legs
        ratio = exact.frames_sent / max(1, coarse.frames_sent)
        emit(
            "\napprox frontier (uav-survey, 60 s, 4 UAVs):\n"
            f"  exact : {exact.frames_sent} frames on air, "
            f"success {exact.mean_success:.3f}\n"
            f"  coarse: {coarse.frames_sent} frames on air, "
            f"success {coarse.mean_success:.3f}\n"
            f"  frame ratio exact/coarse: {ratio:.1f}x "
            f"(gate: >= {FRONTIER_FRAME_RATIO:g}x)\n"
        )
        assert exact.frames_sent >= FRONTIER_FRAME_RATIO * max(
            1, coarse.frames_sent
        )

    def test_observed_error_within_declared_bound(self, legs, emit):
        """Per-period honesty: |coarse - exact| <= declared bound.

        Compared only on periods both legs delivered — the exact leg can
        miss a deadline (that is exactly why it pays more frames), and a
        missed exact period has no reference value to compare against.
        """
        spec, coarse, exact = legs
        compared = 0
        worst_slack = 0.0
        for h_coarse, h_exact in zip(coarse.handles, exact.handles):
            assert h_coarse.spec.user_id == h_exact.spec.user_id
            for k in range(1, h_coarse.spec.num_periods + 1):
                oc = h_coarse.period_outcome(k)
                oe = h_exact.period_outcome(k)
                if oc is None or oe is None:
                    continue
                if not (oc.delivered and oe.delivered):
                    continue
                if oc.value is None or oe.value is None:
                    continue
                assert oc.error_bound is not None
                error = abs(oc.value - oe.value)
                assert error <= oc.error_bound + _EPS, (
                    f"user {h_coarse.spec.user_id} period {k}: observed "
                    f"error {error:.6f} exceeds declared bound "
                    f"{oc.error_bound:.6f}"
                )
                worst_slack = max(worst_slack, error)
                compared += 1
        assert compared >= 20, (
            f"only {compared} delivered period pairs — the scenario no "
            "longer exercises the frontier"
        )
        emit(
            f"  bounds: {compared} period pairs compared, worst observed "
            f"error {worst_slack:.4f} — all within declared bounds\n"
        )

    def test_coarse_leg_is_healthy(self, legs):
        spec, coarse, _exact = legs
        assert coarse.admitted == 4
        assert coarse.mean_success == 1.0
        degraded = sum(s.degraded_periods for s in coarse.workload.sessions)
        assert degraded == 0, (
            "the scenario's duty cycle must keep summaries fresh; "
            f"{degraded} periods were stale"
        )

    def test_exact_twin_is_really_exact(self, legs):
        """The exact leg must not touch the summary plane at all."""
        spec, _coarse, exact = legs
        assert exact.frames_sent > 0
        for handle in exact.handles:
            for k in range(1, handle.spec.num_periods + 1):
                outcome = handle.period_outcome(k)
                if outcome is not None:
                    assert outcome.error_bound is None
