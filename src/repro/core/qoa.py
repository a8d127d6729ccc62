"""Quality of Attestation (QoA) — Section 3.1.

QoA captures *how* a device is attested along the time axis: how often
its state is measured (``T_M``), how often measurements are verified
(``T_C``) and how fresh the newest measurement is at collection time
(``f``, between ``0`` and ``T_M``, averaging ``T_M / 2``).

On-demand attestation conflates the two intervals (``T_M == T_C``, one
measurement per verification, freshness 0); ERASMUS decouples them.
This module provides the analytic relationships the paper states, used
both by the experiments and as oracles for the simulation-based tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QoA:
    """Quality-of-Attestation parameters of a deployment.

    ``measurement_interval`` is ``T_M``, ``collection_interval`` is
    ``T_C``.  ``on_demand_only`` marks the degenerate configuration of
    classic on-demand RA where both intervals coincide.
    """

    measurement_interval: float
    collection_interval: float
    on_demand_only: bool = False

    def __post_init__(self) -> None:
        if self.measurement_interval <= 0 or self.collection_interval <= 0:
            raise ValueError("QoA intervals must be positive")

    @property
    def measurements_per_collection(self) -> int:
        """``k = ceil(T_C / T_M)`` — history records per collection."""
        return int(math.ceil(self.collection_interval /
                             self.measurement_interval))

    @property
    def expected_freshness(self) -> float:
        """Expected freshness ``f``: 0 for on-demand, ``T_M / 2`` otherwise."""
        if self.on_demand_only:
            return 0.0
        return expected_freshness(self.measurement_interval)

    def detection_probability(self, dwell_time: float) -> float:
        """Probability that transient malware of that dwell time is detected."""
        if self.on_demand_only:
            # On-demand attestation only measures at collections: the
            # relevant interval is T_C, which is why it misses mobile
            # malware so easily.
            return detection_probability(dwell_time, self.collection_interval)
        return detection_probability(dwell_time, self.measurement_interval)

    def expected_detection_latency(self) -> float:
        """Expected time from infection to the verifier noticing it."""
        return expected_detection_latency(self.measurement_interval,
                                          self.collection_interval)


def expected_freshness(measurement_interval: float) -> float:
    """Expected freshness of the newest record: ``T_M / 2`` (Section 3.1)."""
    if measurement_interval <= 0:
        raise ValueError("T_M must be positive")
    return measurement_interval / 2


def detection_probability(dwell_time: float,
                          measurement_interval: float) -> float:
    """Probability that malware present for ``dwell_time`` hits a measurement.

    Measurements fire every ``T_M``; the infection window of length
    ``d`` starts uniformly at random relative to that grid.  The window
    contains at least one measurement instant with probability
    ``min(1, d / T_M)`` — the paper's intuition that a smaller ``T_M``
    shrinks the mobile-malware escape window.
    """
    if measurement_interval <= 0:
        raise ValueError("T_M must be positive")
    if dwell_time < 0:
        raise ValueError("dwell time must be non-negative")
    return min(1.0, dwell_time / measurement_interval)


def expected_detection_latency(measurement_interval: float,
                               collection_interval: float) -> float:
    """Expected infection-to-detection delay for persistent malware.

    The next measurement happens after ``T_M / 2`` on average and the
    verifier only learns about it at the next collection, another
    ``T_C / 2`` later on average.  Corrective action therefore lags the
    infection by ``T_M / 2 + T_C / 2`` in expectation — the reason the
    paper stresses keeping ``T_C`` small (Figure 1).
    """
    if measurement_interval <= 0 or collection_interval <= 0:
        raise ValueError("intervals must be positive")
    return measurement_interval / 2 + collection_interval / 2
