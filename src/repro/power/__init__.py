"""Power management: backbone selection protocols and coverage checks."""

from .base import PowerManagementProtocol, repair_connectivity
from .ccp import CcpProtocol
from .coverage import covered_fraction, sample_points
from .gaf import AlwaysOnProtocol, GafProtocol
from .span import SpanProtocol

__all__ = [
    "PowerManagementProtocol",
    "repair_connectivity",
    "CcpProtocol",
    "SpanProtocol",
    "GafProtocol",
    "AlwaysOnProtocol",
    "covered_fraction",
    "sample_points",
]
