"""Staggered measurement scheduling for swarms.

Last paragraph of Section 6: with on-demand swarm attestation a large
part of the network may be busy measuring at the same time, which is
unacceptable when at least part of the group must stay available.  With
ERASMUS it is "trivial to establish a schedule which ensures that only
a fraction of the swarm computes measurements at any given time" — this
module is that schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.swarm.device import SwarmDevice


@dataclass
class StaggeredSchedule:
    """Phase-offset assignment bounding concurrent measurements.

    Devices are split into groups; group ``g`` starts its measurements
    at phase offset ``g * (T_M / groups)``.  As long as the measurement
    run-time is below ``T_M / groups``, at most one group — i.e. a
    fraction ``1 / groups`` of the swarm — is busy at any instant.
    """

    measurement_interval: float
    max_busy_fraction: float

    def __post_init__(self) -> None:
        if self.measurement_interval <= 0:
            raise ValueError("T_M must be positive")
        if not 0 < self.max_busy_fraction <= 1:
            raise ValueError("the busy fraction must be in (0, 1]")

    @property
    def group_count(self) -> int:
        """Number of phase groups needed to respect the busy bound."""
        return max(1, int(math.ceil(1.0 / self.max_busy_fraction)))

    def phase_offsets(self, devices: Sequence[SwarmDevice]) -> Dict[str, float]:
        """Assign each device a measurement phase offset."""
        groups = self.group_count
        slot_length = self.measurement_interval / groups
        return {device.device_id: (index % groups) * slot_length
                for index, device in enumerate(devices)}

    def busy_fraction_at(self, time: float, devices: Sequence[SwarmDevice],
                         measurement_runtime: float) -> float:
        """Fraction of the swarm busy measuring at a given instant."""
        if not devices:
            return 0.0
        offsets = self.phase_offsets(devices)
        busy = 0
        for device in devices:
            phase = (time - offsets[device.device_id]) % \
                self.measurement_interval
            if 0 <= phase < measurement_runtime:
                busy += 1
        return busy / len(devices)

    def worst_case_busy_fraction(self, devices: Sequence[SwarmDevice],
                                 measurement_runtime: float,
                                 samples: int = 200) -> float:
        """Maximum busy fraction observed over one full period."""
        if samples <= 0:
            raise ValueError("at least one sample is required")
        step = self.measurement_interval / samples
        return max(self.busy_fraction_at(index * step, devices,
                                         measurement_runtime)
                   for index in range(samples))
