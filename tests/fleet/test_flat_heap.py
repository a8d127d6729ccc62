"""Soak: a long-running fleet keeps a flat heap.

ERASMUS devices record self-measurements into a fixed n-slot buffer,
so neither a prover nor the verifier should keep anything per
self-measurement or per round once the bounded structures are full.
After a warm-up that fills every bounded window (measurement buffers,
the store's report journal), further rounds must not grow the number
of GC-tracked objects or the traced heap.
"""

import gc
import tracemalloc

from repro.core import DeviceStatus
from repro.fleet import DeviceProfile, Fleet
from repro.store import MemoryStore

MEASUREMENT_INTERVAL = 60.0
COLLECTION_INTERVAL = 600.0
WARMUP_ROUNDS = 30
SOAK_ROUNDS = 150

#: Allowed growth over the soak rounds: a handful of interned or cached
#: objects, nothing that scales with the round count.
MAX_OBJECT_GROWTH = 50
#: tracemalloc counts blocks allocated after it starts but cannot
#: subtract the older blocks they replace, so refilling the rolling
#: buffers and the journal window reads as ~0.1 MB of one-off growth.
MAX_TRACED_GROWTH_BYTES = 512 * 1024


def _round(fleet: Fleet, index: int) -> None:
    fleet.run_until(index * COLLECTION_INTERVAL)
    statuses = {report.status for report in fleet.collect_all()}
    assert statuses == {DeviceStatus.HEALTHY}


def test_rounds_leave_no_per_measurement_or_per_round_records():
    profile = DeviceProfile.smartplus(
        firmware=b"flat-heap-firmware!!", application_size=256,
        measurement_interval=MEASUREMENT_INTERVAL,
        collection_interval=COLLECTION_INTERVAL, buffer_slots=16)
    # A bounded journal keeps the store's by-design retention window out
    # of the measurement: after warm-up it is full and stays full.
    fleet = Fleet.provision(profile, 10, master_secret=b"master",
                            store=MemoryStore(max_reports=100))
    for index in range(1, WARMUP_ROUNDS + 1):
        _round(fleet, index)

    gc.collect()
    tracemalloc.start()
    try:
        objects_before = len(gc.get_objects())
        traced_before, _peak = tracemalloc.get_traced_memory()
        for index in range(WARMUP_ROUNDS + 1,
                           WARMUP_ROUNDS + SOAK_ROUNDS + 1):
            _round(fleet, index)
        gc.collect()
        objects_after = len(gc.get_objects())
        traced_after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(fleet.engine.trace) == 0
    assert objects_after - objects_before <= MAX_OBJECT_GROWTH
    assert traced_after - traced_before <= MAX_TRACED_GROWTH_BYTES


def test_measurement_buffers_hold_nothing_the_collector_tracks():
    """Provers keep records in wire form: no tracked object per slot.

    Each slot is a float timestamp, a float duration and the record's
    bytes, none of which the cyclic collector tracks, so measurement
    intervals add no work to its older generations.
    """
    profile = DeviceProfile.smartplus(
        firmware=b"wire-form-firmware!!", application_size=256,
        measurement_interval=MEASUREMENT_INTERVAL,
        collection_interval=COLLECTION_INTERVAL, buffer_slots=16)
    fleet = Fleet.provision(profile, 50, master_secret=b"master")
    stores = [fleet.device(device_id).prover.store
              for device_id in fleet.device_ids()]
    # Fill every buffer, then wrap it once more.
    fleet.run_until(2 * 16 * MEASUREMENT_INTERVAL)
    gc.collect()
    for store in stores:
        assert store.occupancy() == store.slots
        for column in (store._timestamps, store._durations, store._records):
            assert not any(gc.is_tracked(value) for value in column)
    objects_before = len(gc.get_objects())
    fleet.run_until(4 * 16 * MEASUREMENT_INTERVAL)
    gc.collect()
    assert len(gc.get_objects()) - objects_before <= MAX_OBJECT_GROWTH
