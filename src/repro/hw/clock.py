"""Reliable Read-Only Clock (RROC) models.

The RROC is the one hardware feature ERASMUS leans on beyond SMART:
measurement timestamps must come from a clock malware cannot modify,
otherwise the clock-rewind attack of Section 3.4 becomes possible.

Two constructions from the paper are modelled:

* :class:`ReliableClock` — the SMART+ realization: a 64-bit register
  incremented every cycle whose write-enable wire is physically removed.
* :class:`SoftwareClock` — the HYDRA realization (after Brasser et al.):
  a short, wrapping hardware counter (the i.MX6 GPT) combined with
  software-maintained high-order bits updated on wrap-around interrupts,
  where only the attestation process may write the high bits.
"""

from __future__ import annotations

from dataclasses import dataclass


class ClockTamperError(Exception):
    """Raised when software attempts to modify a read-only clock."""


class ReliableClock:
    """Hardware RROC: a monotonically increasing 64-bit cycle counter.

    The clock is driven by the simulation: :meth:`advance_to` moves it
    to an absolute virtual time (seconds); reads convert the internal
    cycle count back to seconds.  Any attempt to set the value raises
    :class:`ClockTamperError`, mirroring the removed write-enable wire.
    """

    def __init__(self, frequency_hz: float = 8_000_000.0) -> None:
        if frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.frequency_hz = frequency_hz
        self._cycles = 0

    def read(self) -> float:
        """Current time in seconds since device boot."""
        return self._cycles / self.frequency_hz

    def advance_to(self, time_seconds: float) -> None:
        """Advance the counter to the given absolute time (never backwards)."""
        target = int(round(time_seconds * self.frequency_hz))
        if target < self._cycles:
            raise ClockTamperError(
                "RROC cannot move backwards (attempted rewind)")
        self._cycles = target

    def write(self, _value: int) -> None:
        """Model of a software write to the counter: always rejected."""
        raise ClockTamperError(
            "RROC write-enable is hard-wired off; the counter is read-only")


@dataclass
class WrappingCounter:
    """A hardware counter with a limited width that wraps around.

    Models the i.MX6 General Purpose Timer used by HYDRA's software
    clock.  ``width_bits`` of 32 at ~66 MHz wraps roughly every 65 s,
    which is why HYDRA needs the software-maintained high bits.
    """

    frequency_hz: float
    width_bits: int = 32

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("counter frequency must be positive")
        if self.width_bits <= 0:
            raise ValueError("counter width must be positive")
        self._modulus = 1 << self.width_bits
        self._total_cycles = 0

    @property
    def modulus(self) -> int:
        """Number of distinct counter values before wrap-around."""
        return self._modulus

    def value(self) -> int:
        """Current (wrapped) counter value."""
        return self._total_cycles % self._modulus

    def wrap_count(self) -> int:
        """Number of complete wrap-arounds since boot."""
        return self._total_cycles // self._modulus

    def advance_to(self, time_seconds: float) -> int:
        """Advance to an absolute time; returns the number of new wraps."""
        target = int(round(time_seconds * self.frequency_hz))
        if target < self._total_cycles:
            raise ClockTamperError("hardware counter cannot move backwards")
        previous_wraps = self.wrap_count()
        self._total_cycles = target
        return self.wrap_count() - previous_wraps


class SoftwareClock:
    """HYDRA's RROC: wrapping GPT counter + attestation-owned high bits.

    The high-order bits are stored in PrAtt-private memory; only the
    attestation process (``trusted=True`` callers) may update them, which
    happens from the wrap-around interrupt handler.  Reads combine the
    high bits with the live hardware counter.
    """

    def __init__(self, counter: WrappingCounter) -> None:
        self._counter = counter
        self._high_bits = 0

    @property
    def frequency_hz(self) -> float:
        """Frequency of the underlying hardware counter."""
        return self._counter.frequency_hz

    def advance_to(self, time_seconds: float, trusted: bool = True) -> None:
        """Advance the hardware counter; handle wraps in the trusted handler.

        ``trusted=False`` models an environment where the wrap interrupt
        is not serviced by PrAtt — the high bits are then not updated and
        the clock loses time, which the verifier can detect from
        non-monotonic / stale timestamps.
        """
        wraps = self._counter.advance_to(time_seconds)
        if trusted and wraps:
            self._high_bits += wraps

    def read(self) -> float:
        """Current time in seconds, combining high bits and live counter."""
        total_cycles = self._high_bits * self._counter.modulus + \
            self._counter.value()
        return total_cycles / self._counter.frequency_hz
