"""Simulated physical substrate: hosts, shared Ethernet, transport.

This package replaces the paper's hardware (a LAN of SPARCstation 5s)
with a deterministic model.  See DESIGN.md §2 for the substitution
rationale and :mod:`repro.netsim.costs` for every calibration constant.
"""

from ..des.errors import SimOverloadError
from .costs import CostModel, DEFAULT_COSTS
from .host import Host, HostCrashedError
from .transport import Network, Packet, build_lan

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "Host",
    "HostCrashedError",
    "Network",
    "Packet",
    "SimOverloadError",
    "build_lan",
]
