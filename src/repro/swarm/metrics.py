"""Swarm attestation metrics: QoSA levels and result records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class QoSALevel(enum.Enum):
    """Quality of Swarm Attestation levels (from the LISA paper).

    QoSA captures *what* the verifier learns about the swarm; it is
    orthogonal to QoA, which captures *when* each device's state is
    known.  The two can be combined (Section 6).
    """

    BINARY = "binary"        # "is the whole swarm healthy?"
    LIST = "list"            # which devices are healthy
    FULL = "full"            # per-device state plus topology


@dataclass
class SwarmAttestationResult:
    """Outcome of one swarm attestation / collection instance."""

    protocol: str
    devices_total: int
    devices_attested: int
    duration: float
    qosa_level: QoSALevel
    attested_ids: List[str] = field(default_factory=list)
    failed_ids: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Fraction of the swarm whose evidence reached the verifier."""
        if self.devices_total == 0:
            return 1.0
        return self.devices_attested / self.devices_total
