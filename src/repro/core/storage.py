"""Rolling measurement storage (Section 3.2, Figure 3).

A fixed section of the prover's *insecure* memory holds a windowed
(circular) buffer of ``n`` measurements.  The slot for the measurement
taken at RROC time ``t`` is ``i = floor(t / T_M) mod n`` — a stateless
rule, so the prover needs no persistent bookkeeping beyond the buffer
itself.

Each slot holds its record in wire form, the length-prefixed bytes of
:func:`repro.core.measurement.encode_record`, beside the record's exact
float timestamp and modelled ``duration`` (which the wire does not
carry).  Serving a collection therefore joins stored bytes, as the
paper's prover "merely reads its stored measurements and transmits
them".  The buffer is three columns of floats and bytes, so it holds
nothing the cyclic garbage collector tracks however many measurements
pass through it.  Reads (:meth:`MeasurementStore.latest`,
:meth:`~MeasurementStore.raw_slot`, iteration) build
:class:`~repro.core.measurement.Measurement` records from the slots.

Because the buffer is insecure, malware may modify, reorder or delete
entries.  The store therefore deliberately exposes mutation methods
(used by :mod:`repro.adversary.tamper`); safety comes from the verifier
noticing the tampering, never from protecting the buffer.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Union

from repro.arch.base import MeasurementOutput
from repro.core.measurement import Measurement, encode_record, record_fields

#: What the store accepts: a record, or the architecture's raw output
#: (the prover's scheduled path stores that without building a record).
Storable = Union[Measurement, MeasurementOutput]


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
        # One entry per slot in each column; a slot is empty when its
        # record is ``None``.
        self._timestamps: List[float] = [0.0] * slots
        self._durations: List[float] = [0.0] * slots
        self._records: List[Optional[bytes]] = [None] * slots
        self._last_slot: Optional[int] = None
        self.stored_count = 0
        self.overwrites = 0

    def slot_for_time(self, timestamp: float) -> int:
        """The paper's stateless slot rule: ``floor(t / T_M) mod n``."""
        return int(math.floor(timestamp / self.measurement_interval)) % self.slots

    def store(self, measurement: Storable) -> int:
        """Store a measurement in its slot; returns the slot index used."""
        timestamp = measurement.timestamp
        if self.stateless:
            slot = self.slot_for_time(timestamp)
        else:
            slot = self.stored_count % self.slots
        records = self._records
        if records[slot] is not None:
            self.overwrites += 1
        self._timestamps[slot] = timestamp
        self._durations[slot] = measurement.duration
        records[slot] = encode_record(timestamp, measurement.digest,
                                      measurement.tag)
        self._last_slot = slot
        self.stored_count += 1
        return slot

    def _read(self, slot: int) -> Optional[Measurement]:
        record = self._records[slot]
        if record is None:
            return None
        digest, tag = record_fields(record)
        return Measurement(self._timestamps[slot], digest, tag,
                           self._durations[slot])

    def _newest(self, column: Sequence, k: int) -> Sequence:
        """``column``'s entries for the ``k`` most recent slots, newest first.

        This is the collection-phase read ``{ *L_(i-j) mod n | 0 <= j < k }``
        from Figure 2, as slices of one column (``range(n)`` reads the
        slot indices).  ``k`` larger than ``n`` is clamped to ``n``
        (``if k > n: k = n`` in the protocol figure).
        """
        last = self._last_slot
        if k <= 0 or last is None:
            return ()
        first = last + 1 - min(k, self.slots)
        if first >= 0:
            return column[first:last + 1][::-1]
        # The window wraps: slots ``last`` down to 0, then ``n - 1``
        # down to ``n + first``.
        return [*column[last::-1], *column[:first - 1:-1]]

    def latest(self, k: int) -> List[Measurement]:
        """Return the ``k`` most recent measurements, newest first.

        Empty slots are skipped (see :meth:`_newest`).
        """
        return [measurement for measurement in map(
            self._read, self._newest(range(self.slots), k))
            if measurement is not None]

    def latest_records(self, k: int) -> List[bytes]:
        """:meth:`latest` in wire form: the stored length-prefixed records."""
        return [record for record in self._newest(self._records, k)
                if record is not None]

    def newest(self) -> Optional[Measurement]:
        """The most recently stored measurement, if any."""
        latest = self.latest(1)
        return latest[0] if latest else None

    def occupancy(self) -> int:
        """Number of non-empty slots."""
        return self.slots - self._records.count(None)

    def all_measurements(self) -> List[Measurement]:
        """All stored measurements, oldest first (by timestamp)."""
        present = [entry for entry in self if entry is not None]
        return sorted(present, key=lambda measurement: measurement.timestamp)

    def __iter__(self) -> Iterator[Optional[Measurement]]:
        return map(self._read, range(self.slots))

    def __len__(self) -> int:
        return self.occupancy()

    # ------------------------------------------------------------------
    # Insecure-memory mutations (available to malware by construction)
    # ------------------------------------------------------------------
    def raw_slot(self, index: int) -> Optional[Measurement]:
        """Direct read of a slot (no access control: the buffer is insecure)."""
        return self._read(index % self.slots)

    def overwrite_slot(self, index: int,
                       measurement: Optional[Storable]) -> None:
        """Direct write of a slot — what tampering malware does."""
        slot = index % self.slots
        if measurement is None:
            self._records[slot] = None
            return
        self._timestamps[slot] = measurement.timestamp
        self._durations[slot] = measurement.duration
        self._records[slot] = encode_record(
            measurement.timestamp, measurement.digest, measurement.tag)

    def clear_all(self) -> None:
        """Wipe the whole buffer — the bluntest possible tampering."""
        self._records = [None] * self.slots
        self._last_slot = None

    def swap_slots(self, first: int, second: int) -> None:
        """Reorder two slots — another tampering primitive."""
        first %= self.slots
        second %= self.slots
        for column in (self._timestamps, self._durations, self._records):
            column[first], column[second] = column[second], column[first]
