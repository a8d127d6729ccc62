"""Point-to-point links with latency, bandwidth and loss."""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet


@dataclass
class Link:
    """A bidirectional link between two nodes.

    ``latency`` is the one-way propagation delay in seconds,
    ``bandwidth_bps`` the transmission rate in bits per second and
    ``loss_probability`` the independent per-packet drop probability.
    """

    node_a: str
    node_b: str
    latency: float = 0.001
    bandwidth_bps: float = 10_000_000.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")

    def endpoints(self) -> tuple[str, str]:
        """The two endpoint names, in construction order."""
        return (self.node_a, self.node_b)

    def transfer_delay(self, packet: Packet) -> float:
        """Total delay for one packet: propagation plus serialization."""
        serialization = packet.size_bytes * 8 / self.bandwidth_bps
        return self.latency + serialization
