"""Measurement scheduling disciplines.

Three disciplines from the paper:

* **Regular** (Section 3.1): a fixed interval ``T_M`` between successive
  self-measurements.
* **Irregular** (Section 3.5): the next interval is drawn from a CSPRNG
  seeded with the secret key ``K`` and mapped into ``[L, U]``, so that
  schedule-aware mobile malware cannot predict when the next measurement
  fires.  The timer deadline must be read-protected.
* **Lenient** (Section 5): measurements nominally fire every ``T_M`` but
  an aborted measurement (pre-empted by a time-critical task) may be
  rescheduled to any point within the current ``w * T_M`` window.

A scheduler answers one question — "given the time of the measurement
that just happened (or was aborted), when is the next one?" — and is
deliberately independent of the simulation engine so it can be analysed
in isolation (e.g. by the Section 3.5 evasion experiments).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.config import ErasmusConfig, ScheduleKind
from repro.crypto.csprng import HmacDrbg


class MeasurementScheduler(abc.ABC):
    """Base class: produces the sequence of measurement times."""

    def __init__(self, measurement_interval: float) -> None:
        if measurement_interval <= 0:
            raise ValueError("T_M must be positive")
        self.measurement_interval = measurement_interval

    @abc.abstractmethod
    def next_interval(self, current_time: float) -> float:
        """Seconds to wait after ``current_time`` until the next measurement."""

    def next_time(self, current_time: float) -> float:
        """Absolute time of the next measurement after ``current_time``."""
        return current_time + self.next_interval(current_time)

    def reschedule_after_abort(self, abort_time: float,
                               window_start: float) -> Optional[float]:
        """Time at which to retry an aborted measurement, or ``None``.

        The default (regular / irregular schedules) gives up on the
        aborted measurement — the slot simply stays empty and the miss
        becomes visible to the verifier.
        """
        del abort_time, window_start
        return None

    def schedule(self, start_time: float, horizon: float) -> list[float]:
        """Generate all measurement times in ``(start_time, horizon]``."""
        times: list[float] = []
        current = start_time
        while True:
            current = self.next_time(current)
            if current > horizon:
                break
            times.append(current)
        return times


class RegularScheduler(MeasurementScheduler):
    """Fixed ``T_M`` between measurements (the paper's default)."""

    def next_interval(self, current_time: float) -> float:
        """Always ``T_M``."""
        del current_time
        return self.measurement_interval


class IrregularScheduler(MeasurementScheduler):
    """CSPRNG-driven intervals bounded by ``[lower, upper]`` (Section 3.5).

    The CSPRNG is seeded with the attestation key (plus an optional
    per-device nonce), so the verifier — who shares ``K`` — can
    regenerate the expected schedule, while malware on the prover
    cannot predict it (the paper read-protects the timer deadline; here
    the next time lives only in the prover's scheduler and the engine
    event it schedules).
    """

    def __init__(self, key: bytes, lower: float, upper: float,
                 device_nonce: bytes = b"") -> None:
        if not 0 < lower <= upper:
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        super().__init__(measurement_interval=(lower + upper) / 2)
        self.lower = lower
        self.upper = upper
        self._drbg = HmacDrbg(bytes(key), personalization=b"erasmus-schedule" +
                              bytes(device_nonce))

    def next_interval(self, current_time: float) -> float:
        """Draw the next interval from the CSPRNG, mapped into ``[L, U]``."""
        del current_time
        return self._drbg.uniform(self.lower, self.upper)

    def intervals(self, count: int) -> list[float]:
        """Draw ``count`` successive intervals in one batched call.

        Stream-identical to ``count`` :meth:`next_interval` calls; the
        verifier uses this to regenerate a whole expected schedule, and
        the evasion sweeps use it to amortize DRBG overhead.
        """
        return self._drbg.uniform_batch(self.lower, self.upper, count)


class LenientScheduler(MeasurementScheduler):
    """Regular schedule with a ``w * T_M`` window for aborted measurements.

    Under normal conditions this behaves exactly like
    :class:`RegularScheduler`.  When a measurement is aborted, the
    prover retries at the end of the current window rather than skipping
    the measurement entirely.
    """

    def __init__(self, measurement_interval: float,
                 window_factor: float = 2.0) -> None:
        if window_factor < 1.0:
            raise ValueError("the window factor w must be >= 1")
        super().__init__(measurement_interval)
        self.window_factor = window_factor

    def next_interval(self, current_time: float) -> float:
        """Nominal interval is still ``T_M``."""
        del current_time
        return self.measurement_interval

    def window_length(self) -> float:
        """Length of the lenient window: ``w * T_M``."""
        return self.window_factor * self.measurement_interval

    def reschedule_after_abort(self, abort_time: float,
                               window_start: float) -> Optional[float]:
        """Retry at the end of the current window, if there is room left."""
        window_end = window_start + self.window_length()
        if abort_time >= window_end:
            return None
        return window_end


def build_scheduler(config: ErasmusConfig, key: bytes = b"",
                    device_nonce: bytes = b"") -> MeasurementScheduler:
    """Build the scheduler matching an :class:`ErasmusConfig`."""
    if config.schedule is ScheduleKind.REGULAR:
        return RegularScheduler(config.measurement_interval)
    if config.schedule is ScheduleKind.IRREGULAR:
        if not key:
            raise ValueError("irregular scheduling needs the key K as seed")
        assert config.irregular_lower is not None
        assert config.irregular_upper is not None
        return IrregularScheduler(key, config.irregular_lower,
                                  config.irregular_upper,
                                  device_nonce=device_nonce)
    if config.schedule is ScheduleKind.LENIENT:
        return LenientScheduler(config.measurement_interval,
                                config.lenient_window_factor)
    raise ValueError(f"unknown schedule kind {config.schedule!r}")
