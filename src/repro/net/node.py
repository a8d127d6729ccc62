"""Protocol endpoints attached to the simulated network."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet


class NetworkNode:
    """A named endpoint that can send and receive packets.

    Concrete behaviour is supplied by a receive handler, so the same
    class serves verifiers, ERASMUS provers and swarm relay devices.
    """

    def __init__(self, name: str,
                 on_receive: Optional[Callable[["NetworkNode", Packet, float],
                                               None]] = None) -> None:
        self.name = name
        self._on_receive = on_receive
        self.network = None  # set by Network.add_node
        self.sent_packets = 0
        self.received_packets = 0
        self.sent_bytes = 0
        self.received_bytes = 0

    def send(self, destination: str, payload: bytes,
             kind: str = "data") -> Optional[Packet]:
        """Send a packet through the attached network.

        Returns the packet, or ``None`` when the node is not attached or
        no route exists at the moment (mobile swarm partitions).
        """
        if self.network is None:
            return None
        packet = Packet(source=self.name, destination=destination,
                        payload=payload, kind=kind)
        delivered = self.network.transmit(packet)
        if delivered:
            self.sent_packets += 1
            self.sent_bytes += packet.size_bytes
            return packet
        return None

    def deliver(self, packet: Packet, time: float) -> None:
        """Called by the network when a packet arrives at this node."""
        self.received_packets += 1
        self.received_bytes += packet.size_bytes
        if self._on_receive is not None:
            self._on_receive(self, packet, time)
