"""Spans recorded from the benchmark's side, and cProfile bucketed by layer.

Spans are kept in memory as ``{id, parent, name, start, end}`` (seconds from
the recorder's origin) and written out once, at the end of the run.  The
profile of a traced pass is folded into the layers named in
``bench/README.md``: ``tottime`` and call counts per ``repro.<pkg>.<module>``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
from typing import Dict, List, Optional, Tuple

#: repro module (path under ``src/repro``, no suffix) -> layer
_MODULE_LAYER = {
    "sim/kernel": "sim.kernel",
    "sim/trace": "sim.trace",
    "net/channel": "net.channel",
    "net/vectorized": "net.vectorized",
    "net/mac": "net.mac",
    "net/psm": "net.psm",
    "net/radio": "net.radio",
    "net/energy": "net.radio",
    "net/routing": "net.routing",
    "net/flooding": "net.routing",
    "net/node": "net.node",
    "net/network": "net.node",
    "net/field": "net.node",
    "core/service": "core.service",
    "core/gateway": "core.gateway",
    "core/query": "core.query",
    "core/trees": "core.query",
    "core/messages": "core.query",
    "core/metrics": "core.metrics",
    "api/service": "api.service",
    "api/admission": "api.admission",
    "api/scenarios": "api.scenarios",
    # parsing a spec's (possibly empty) fault plan is spec loading; the
    # "faults" layer is the plane itself, which an empty plan never builds
    "faults/plan": "api.scenarios",
}
#: whole packages that are one layer
_PACKAGE_LAYER = ("mobility", "power", "geometry", "workload", "approx", "faults")

LAYERS = tuple(dict.fromkeys(_MODULE_LAYER.values())) + _PACKAGE_LAYER + ("other",)


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    _, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not sep:
        return "other"
    module = tail[:-3] if tail.endswith(".py") else tail
    layer = _MODULE_LAYER.get(module)
    if layer is None and module.split("/", 1)[0] in _PACKAGE_LAYER:
        layer = module.split("/", 1)[0]
    return layer or "other"


def bucket_profile(
    profile: cProfile.Profile,
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """``(self_s by layer, calls by layer, calls of the named functions)``."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    named = {"position_at": 0, "on_frame": 0}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if func == "position_at" and filename.endswith("mobility/path.py"):
            named["position_at"] += ncalls
        elif func == "on_frame" and filename.endswith("net/mac.py"):
            named["on_frame"] += ncalls
    return self_s, calls, named


class Spans:
    """An in-memory span recorder (thread-safe)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._lock = threading.Lock()

    def begin(self, name: str, parent: Optional[int] = None, **attrs) -> int:
        """Open a span now; returns its id (the ``parent`` of its children)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "end": None, **attrs}
            )
        self.spans[span_id]["start"] = time.perf_counter() - self.origin
        return span_id

    def end(self, span_id: int) -> float:
        """Close a span; returns its duration in seconds."""
        span = self.spans[span_id]
        span["end"] = time.perf_counter() - self.origin
        return span["end"] - span["start"]

    def durations(self, name: str) -> List[float]:
        with self._lock:
            return [
                s["end"] - s["start"]
                for s in self.spans
                if s["name"] == name and s["end"] is not None
            ]

    def write(self, path: str) -> None:
        with self._lock:
            spans = [s for s in self.spans if s["end"] is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
            fh.write("\n")
