"""Per-device description for swarm attestation simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw.devices import DeviceCostModel, MCUModel


@dataclass
class SwarmDevice:
    """One device in a swarm.

    ``compute_time`` is how long the device needs for one on-demand
    measurement (drives SEDA/LISA duration); ``collection_time`` is how
    long it needs to serve an ERASMUS collection (reading and relaying
    stored records — effectively negligible, Table 2).
    """

    device_id: str
    compute_time: float
    collection_time: float = 1.5e-5
    healthy: bool = True

    def attestation_service_time(self, on_demand: bool) -> float:
        """Time the device spends serving one swarm attestation."""
        return self.compute_time if on_demand else self.collection_time


def build_swarm(count: int, memory_bytes: int = 10 * 1024,
                mac_name: str = "keyed-blake2s",
                cost_model: DeviceCostModel | None = None
                ) -> List[SwarmDevice]:
    """Build a homogeneous swarm of ``count`` devices.

    Compute times come from the device cost model (MSP430-class by
    default, matching the paper's low-end swarm setting).
    """
    if count <= 0:
        raise ValueError("a swarm needs at least one device")
    model = cost_model if cost_model is not None else MCUModel()
    compute_time = model.measurement_runtime(memory_bytes, mac_name)
    return [SwarmDevice(device_id=f"dev{index}",
                        compute_time=compute_time)
            for index in range(count)]
