"""Wireless network substrate: channel, MAC, PSM, energy, nodes, routing."""

from .channel import BroadcastReception, Channel
from .energy import PAPER_POWER_MODEL, EnergyMeter, PowerModel, RadioState
from .field import (
    Hotspot,
    HotspotField,
    ScalarField,
    UniformField,
    fire_scenario_field,
)
from .flooding import FloodEnvelope, FloodManager
from .mac import MacLayer
from .network import Network, NetworkConfig, build_network, uniform_positions
from .node import ROLE_ACTIVE, ROLE_SLEEPER, MobileEndpoint, SensorNode
from .packet import ACK_SIZE_BYTES, BROADCAST, MAC_HEADER_BYTES, Frame
from .psm import PsmConfig, SleepScheduler, WakeWheel
from .radio import Radio
from .routing import GeoEnvelope, GeoRouter

__all__ = [
    "BroadcastReception",
    "Channel",
    "EnergyMeter",
    "PowerModel",
    "PAPER_POWER_MODEL",
    "RadioState",
    "ScalarField",
    "UniformField",
    "Hotspot",
    "HotspotField",
    "fire_scenario_field",
    "FloodManager",
    "FloodEnvelope",
    "MacLayer",
    "Network",
    "NetworkConfig",
    "build_network",
    "uniform_positions",
    "SensorNode",
    "MobileEndpoint",
    "ROLE_ACTIVE",
    "ROLE_SLEEPER",
    "Frame",
    "BROADCAST",
    "MAC_HEADER_BYTES",
    "ACK_SIZE_BYTES",
    "PsmConfig",
    "SleepScheduler",
    "WakeWheel",
    "Radio",
    "GeoRouter",
    "GeoEnvelope",
]
