"""Seeded twin of a lossy, sharded, attacked fleet: pins simulation order.

A 40-device SMART+ fleet collects over the simulated packet network
(5 % loss, two shards) while persistent, mobile and tampering malware
act on their own timers.  Six rounds later, one SHA-256 covers every
round's report rows, every prover's buffer slots
``(timestamp, digest, tag)``, the final ``FleetHealth.to_row()`` and
``engine.events_processed``.  Any change to which events fire, in what
order, or to the bytes the provers measure changes the digest.

``EXPECTED_DIGEST`` was computed at commit ``7fd23a3`` -- before the
simulation engine moved to a plain ``(time, seq, callback)`` heap,
device memory to named-region access and SMART+ to one shared ROM
image -- so it pins that those changes kept the simulated behaviour
identical.  It holds on both crypto providers and under any
``PYTHONHASHSEED``.
"""

import hashlib
import json

from repro.adversary.fleet import (
    FleetMobileMalware,
    FleetPersistentMalware,
    FleetTamperingMalware,
)
from repro.core.config import ErasmusConfig
from repro.fleet.profiles import DeviceProfile
from repro.fleet.service import Fleet

EXPECTED_DIGEST = (
    "b289b5272af9f96cbe99ac331faebe5a269ea5ffb33198b1c22e2e3e76d58b27")
EXPECTED_EVENTS = 2904

DEVICES = 40
ROUNDS = 6
SEED = 2024


def _twin_digest():
    config = ErasmusConfig(measurement_interval=60.0,
                           collection_interval=600.0, buffer_slots=12)
    profile = DeviceProfile.smartplus(application_size=256, config=config)
    fleet = Fleet.provision(
        profile, DEVICES, master_secret=b"sim-twin-master",
        transport="simulated-network",
        transport_options={"loss_probability": 0.05, "seed": SEED},
        shards=2)
    horizon = ROUNDS * config.collection_interval
    roster = {device_id: fleet.device(device_id)
              for device_id in fleet.device_ids()}
    adversaries = [
        FleetPersistentMalware(roster, victim_fraction=0.1, seed=SEED),
        FleetMobileMalware(roster, arrival_rate=1.0 / 900.0, dwell=90.0,
                           victim_fraction=0.25, seed=SEED + 1),
        FleetTamperingMalware(
            roster, times=[collection - 30.0 for collection in
                           (1200.0, 2400.0, 3000.0)],
            victim_fraction=0.1, seed=SEED + 2),
    ]
    for adversary in adversaries:
        adversary.deploy(fleet.engine, horizon)
    sha = hashlib.sha256()
    try:
        for round_index in range(1, ROUNDS + 1):
            fleet.run_until(round_index * config.collection_interval)
            for report in fleet.collect_all():
                sha.update(json.dumps(report.to_row(),
                                      sort_keys=True).encode())
        for device in fleet.devices():
            for slot in device.prover.store:
                if slot is None:
                    sha.update(b"empty")
                else:
                    sha.update(repr(slot.timestamp).encode())
                    sha.update(slot.digest)
                    sha.update(slot.tag)
        sha.update(json.dumps(fleet.health.to_row(),
                              sort_keys=True).encode())
        events = fleet.engine.events_processed
        sha.update(str(events).encode())
    finally:
        fleet.close()
    return sha.hexdigest(), events


def test_seeded_fleet_simulates_identically():
    digest, events = _twin_digest()
    assert events == EXPECTED_EVENTS
    assert digest == EXPECTED_DIGEST
