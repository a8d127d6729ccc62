"""Configuration objects for ERASMUS deployments."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ScheduleKind(enum.Enum):
    """Measurement scheduling disciplines described in the paper."""

    REGULAR = "regular"          # fixed T_M (Section 3.1)
    IRREGULAR = "irregular"      # CSPRNG-driven intervals (Section 3.5)
    LENIENT = "lenient"          # window of w * T_M (Section 5)


@dataclass
class ErasmusConfig:
    """Deployment parameters of one ERASMUS prover.

    Attributes
    ----------
    measurement_interval:
        ``T_M`` — seconds between two successive self-measurements.
    collection_interval:
        ``T_C`` — seconds between two successive verifier collections.
        Only used for QoA computations and to derive defaults; the
        verifier is free to collect whenever it wants.
    buffer_slots:
        ``n`` — number of slots in the rolling measurement buffer.  The
        paper requires ``T_C <= n * T_M`` so no measurement is
        overwritten before it is collected.
    schedule:
        Which scheduling discipline the prover uses.
    irregular_lower / irregular_upper:
        Bounds ``L`` and ``U`` on the CSPRNG-drawn interval for
        :data:`ScheduleKind.IRREGULAR`.
    lenient_window_factor:
        ``w`` — an aborted measurement may be rescheduled anywhere in the
        current ``w * T_M`` window (:data:`ScheduleKind.LENIENT`).
    mac_name:
        MAC algorithm used for measurements.
    request_freshness_window:
        Acceptance window (seconds) for authenticated verifier requests
        in ERASMUS+OD / on-demand attestation.

    The crypto provider is not part of a deployment: every prover,
    verifier and scheduler uses the process's provider
    (:mod:`repro.crypto.backend`), and all providers compute the same
    bytes.
    """

    measurement_interval: float = 60.0
    collection_interval: float = 600.0
    buffer_slots: int = 16
    schedule: ScheduleKind = ScheduleKind.REGULAR
    irregular_lower: float | None = None
    irregular_upper: float | None = None
    lenient_window_factor: float = 1.0
    mac_name: str = "keyed-blake2s"
    request_freshness_window: float = 60.0

    def __post_init__(self) -> None:
        if self.measurement_interval <= 0:
            raise ValueError("T_M must be positive")
        if self.collection_interval <= 0:
            raise ValueError("T_C must be positive")
        if self.buffer_slots <= 0:
            raise ValueError("the buffer needs at least one slot")
        if self.lenient_window_factor < 1.0:
            raise ValueError("the lenient window factor w must be >= 1")
        if self.schedule is ScheduleKind.IRREGULAR:
            if self.irregular_lower is None:
                self.irregular_lower = self.measurement_interval / 2
            if self.irregular_upper is None:
                self.irregular_upper = self.measurement_interval * 3 / 2
            if not 0 < self.irregular_lower <= self.irregular_upper:
                raise ValueError(
                    "irregular bounds must satisfy 0 < L <= U")

    @property
    def measurements_per_collection(self) -> int:
        """``k = ceil(T_C / T_M)`` — measurements fetched per collection.

        This is the paper's "typical setting" where each measurement is
        collected exactly once.
        """
        return int(math.ceil(self.collection_interval /
                             self.measurement_interval))
