"""Rolling measurement storage (Section 3.2, Figure 3).

A fixed section of the prover's *insecure* memory holds a windowed
(circular) buffer of ``n`` measurements.  The slot for the measurement
taken at RROC time ``t`` is ``i = floor(t / T_M) mod n`` — a stateless
rule, so the prover needs no persistent bookkeeping beyond the buffer
itself.

Because the buffer is insecure, malware may modify, reorder or delete
entries.  The store therefore deliberately exposes mutation methods
(used by :mod:`repro.adversary.tamper`); safety comes from the verifier
noticing the tampering, never from protecting the buffer.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

from repro.core.measurement import Measurement


class MeasurementStore:
    """Circular buffer of ``n`` measurement slots.

    Parameters
    ----------
    slots:
        ``n`` — the number of buffer slots.
    measurement_interval:
        ``T_M`` used by the stateless slot rule.
    stateless:
        When ``True`` (default, regular schedules) the slot is derived
        from the timestamp with the paper's stateless rule
        ``floor(t / T_M) mod n``.  When ``False`` (irregular schedules,
        where several measurements may fall inside one nominal ``T_M``
        window) slots simply advance round-robin.
    """

    def __init__(self, slots: int, measurement_interval: float,
                 stateless: bool = True) -> None:
        if slots <= 0:
            raise ValueError("the buffer needs at least one slot")
        if measurement_interval <= 0:
            raise ValueError("T_M must be positive")
        self.slots = slots
        self.measurement_interval = measurement_interval
        self.stateless = stateless
        self._buffer: List[Optional[Measurement]] = [None] * slots
        self._last_slot: Optional[int] = None
        self.stored_count = 0
        self.overwrites = 0

    def slot_for_time(self, timestamp: float) -> int:
        """The paper's stateless slot rule: ``floor(t / T_M) mod n``."""
        return int(math.floor(timestamp / self.measurement_interval)) % self.slots

    def store(self, measurement: Measurement) -> int:
        """Store a measurement in its slot; returns the slot index used."""
        if self.stateless:
            slot = self.slot_for_time(measurement.timestamp)
        else:
            slot = self.stored_count % self.slots
        if self._buffer[slot] is not None:
            self.overwrites += 1
        self._buffer[slot] = measurement
        self._last_slot = slot
        self.stored_count += 1
        return slot

    def latest(self, k: int) -> List[Measurement]:
        """Return the ``k`` most recent measurements, newest first.

        This is the collection-phase read ``{ *L_(i-j) mod n | 0 <= j < k }``
        from Figure 2.  ``k`` larger than ``n`` is clamped to ``n``
        (``if k > n: k = n`` in the protocol figure); empty slots are
        skipped.
        """
        if k <= 0:
            return []
        k = min(k, self.slots)
        if self._last_slot is None:
            return []
        result: List[Measurement] = []
        for j in range(k):
            slot = (self._last_slot - j) % self.slots
            measurement = self._buffer[slot]
            if measurement is not None:
                result.append(measurement)
        return result

    def newest(self) -> Optional[Measurement]:
        """The most recently stored measurement, if any."""
        latest = self.latest(1)
        return latest[0] if latest else None

    def occupancy(self) -> int:
        """Number of non-empty slots."""
        return sum(1 for entry in self._buffer if entry is not None)

    def all_measurements(self) -> List[Measurement]:
        """All stored measurements, oldest first (by timestamp)."""
        present = [entry for entry in self._buffer if entry is not None]
        return sorted(present, key=lambda measurement: measurement.timestamp)

    def __iter__(self) -> Iterator[Optional[Measurement]]:
        return iter(self._buffer)

    def __len__(self) -> int:
        return self.occupancy()

    # ------------------------------------------------------------------
    # Insecure-memory mutations (available to malware by construction)
    # ------------------------------------------------------------------
    def raw_slot(self, index: int) -> Optional[Measurement]:
        """Direct read of a slot (no access control: the buffer is insecure)."""
        return self._buffer[index % self.slots]

    def overwrite_slot(self, index: int,
                       measurement: Optional[Measurement]) -> None:
        """Direct write of a slot — what tampering malware does."""
        self._buffer[index % self.slots] = measurement

    def clear_all(self) -> None:
        """Wipe the whole buffer — the bluntest possible tampering."""
        self._buffer = [None] * self.slots
        self._last_slot = None

    def swap_slots(self, first: int, second: int) -> None:
        """Reorder two slots — another tampering primitive."""
        first %= self.slots
        second %= self.slots
        self._buffer[first], self._buffer[second] = \
            self._buffer[second], self._buffer[first]
