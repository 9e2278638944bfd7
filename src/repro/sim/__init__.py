"""Discrete-event simulation substrate: kernel, RNG, tracing."""

from .kernel import EventHandle, SimulationError, Simulator
from .rng import RandomStreams
from .trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
]
