"""The ``REPRO_VECTORIZE`` switch and the numpy-absent import.

``repro.net.vectorized`` must import (and the whole simulator must
reproduce the golden results) with numpy blocked from ``sys.modules``, and
the kill-switch must turn the mobile sweep off with numpy installed.  The
sweep itself is pinned against the direct loop in
``tests/test_cluster_service.py::TestMobileMemoEquivalence`` and by the
golden suite running on both legs.
"""

import importlib
import sys

from repro.net import vectorized
from repro.net.channel import Channel
from repro.sim.kernel import Simulator

from .test_golden_determinism import GOLDEN_EVENT_COUNTS, GOLDEN_RESULTS, _config


def _channel():
    return Channel(Simulator(), comm_range=105.0, bitrate_bps=2e6)


class TestNumpyAbsent:
    def test_kill_switch_forces_reference(self, monkeypatch):
        for value in ("0", "off", "false", "reference", "no"):
            monkeypatch.setenv("REPRO_VECTORIZE", value)
            assert vectorized.numpy_or_none() is None
            assert vectorized.accelerator_name() == "reference"
            assert _channel()._sweep is None
        monkeypatch.delenv("REPRO_VECTORIZE")
        if vectorized._np is not None:
            assert vectorized.numpy_or_none() is vectorized._np
            assert vectorized.accelerator_name().startswith("numpy-")
            assert _channel()._sweep is not None

    def test_reference_path_matches_goldens_without_numpy(self):
        """Block numpy from fresh imports, reload the module, run a pinned
        scenario end to end: the reference path must reproduce the golden
        results exactly (the no-numpy CI leg in miniature)."""
        from repro.experiments.runner import run_experiment

        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None  # any fresh ``import numpy`` raises
        try:
            importlib.reload(vectorized)
        finally:
            # Unblock immediately: other subsystems (RNG streams) import
            # numpy unconditionally and are out of scope here.  The module
            # under test keeps the numpy-less state it just loaded with.
            if saved is not None:
                sys.modules["numpy"] = saved
            else:
                del sys.modules["numpy"]
        try:
            assert vectorized._np is None
            assert vectorized.numpy_or_none() is None
            assert vectorized.accelerator_name() == "reference"
            result = run_experiment(_config(1))
        finally:
            importlib.reload(vectorized)
        golden = GOLDEN_RESULTS["single_user"]
        assert result.frames_sent == golden["frames_sent"]
        assert result.frames_delivered == golden["frames_delivered"]
        assert result.frames_collided == golden["frames_collided"]
        assert (
            tuple(s.success_ratio for s in result.workload.sessions)
            == golden["success_ratios"]
        )
        assert result.events_executed == GOLDEN_EVENT_COUNTS["single_user"]
