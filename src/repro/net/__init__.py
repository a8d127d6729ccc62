"""Simulated network substrate.

The paper's collection phase runs over UDP/Ethernet (Table 2) and its
swarm discussion (Section 6) concerns multi-hop networks of devices
whose topology may change quickly.  This package provides:

* :mod:`repro.net.packet` — datagrams with realistic sizes;
* :mod:`repro.net.link` — point-to-point links with latency and loss;
* :mod:`repro.net.node` — protocol endpoints attached to the simulator;
* :mod:`repro.net.network` — a topology of nodes and links with
  latency-shortest-path routing (a small Dijkstra over an
  insertion-ordered adjacency) and delivery through the event engine;
* :mod:`repro.net.mobility` — mobility models that rewire the topology
  over time (the "highly mobile swarm" setting).
"""

from repro.net.link import Link
from repro.net.mobility import (
    MobilityModel,
    PartitionMergeMobility,
    RandomWaypointMobility,
)
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.packet import Packet

__all__ = [
    "Link",
    "MobilityModel",
    "Network",
    "NetworkNode",
    "Packet",
    "PartitionMergeMobility",
    "RandomWaypointMobility",
]
