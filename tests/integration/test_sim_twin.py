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
``PYTHONHASHSEED`` (CI runs this file under two fixed seeds).

That fleet is SMART+ only, on a regular schedule, with no aborts and no
measurement listeners.  A second twin covers those paths: six HYDRA
provers on regular, irregular (round-robin storage) and lenient
schedules, where a time-critical task aborts some lenient measurements,
and a listener on every prover that hashes each attempt and sometimes
rewrites the application image.  Its digest covers every buffer slot
``(timestamp, duration, digest, tag)``, each prover's taken, aborted
and missed counts and ``engine.events_processed``.
``EXPECTED_HYDRA_DIGEST`` was computed at commit ``7ac4ba7``, before the
measurement path resolved its hash, MAC, run-time and atomic guard once
per device, and holds on both crypto providers.
"""

import hashlib
import json

from repro.adversary.fleet import (
    FleetMobileMalware,
    FleetPersistentMalware,
    FleetTamperingMalware,
)
from repro.core.config import ErasmusConfig, ScheduleKind
from repro.core.prover import ErasmusProver
from repro.fleet.profiles import DeviceProfile
from repro.fleet.service import Fleet
from repro.hydra.architecture import build_hydra_architecture
from repro.sim.engine import SimulationEngine

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


# ----------------------------------------------------------------------
# HYDRA provers on every schedule kind, with aborts and a listener
# ----------------------------------------------------------------------
EXPECTED_HYDRA_DIGEST = (
    "930487035e099093d5f281cb8218a75473641cad3e108c81bf726d886013cde7")
EXPECTED_HYDRA_EVENTS = 357

HYDRA_HORIZON = 3600.0
_HYDRA_DEVICES = (
    # (MAC, schedule, start time)
    ("keyed-blake2s", ScheduleKind.REGULAR, 0.0),
    ("hmac-sha256", ScheduleKind.IRREGULAR, 5.0),
    ("hmac-sha256", ScheduleKind.LENIENT, 10.0),
    ("keyed-blake2s", ScheduleKind.IRREGULAR, 15.0),
    ("hmac-sha256", ScheduleKind.REGULAR, 20.0),
    ("keyed-blake2s", ScheduleKind.LENIENT, 25.0),
)


def _critical_task_active(time):
    """A time-critical task that pre-empts some measurements."""
    return int(time) % 7 in (0, 3)


def _hydra_twin_digest():
    engine = SimulationEngine()
    sha = hashlib.sha256()
    provers = []
    for index, (mac_name, schedule, start) in enumerate(_HYDRA_DEVICES):
        device_id = f"hydra-{index}"
        key = hashlib.sha256(device_id.encode()).digest()
        config = ErasmusConfig(
            measurement_interval=60.0, buffer_slots=16, schedule=schedule,
            irregular_lower=30.0, irregular_upper=90.0,
            lenient_window_factor=2.0, mac_name=mac_name)
        architecture = build_hydra_architecture(
            key, mac_name=mac_name, application_size=2048,
            measurement_buffer_size=4096)
        architecture.load_application(device_id.encode() * 16)
        prover = ErasmusProver(
            architecture, config, device_id=device_id, scheduling_key=key,
            critical_task_active=_critical_task_active
            if schedule is ScheduleKind.LENIENT else None)

        def listener(observed_id, time, measurement,
                     architecture=architecture):
            # Some attempts rewrite the application, so later digests
            # depend on which measurements the listener saw, and when.
            sha.update(f"{observed_id}@{time!r}:".encode())
            if measurement is None:
                sha.update(b"aborted")
            else:
                sha.update(measurement.tag)
                if int(time) % 5 == 0:
                    architecture.load_application(measurement.digest)

        prover.measurement_listeners.append(listener)
        prover.attach(engine, start_time=start)
        provers.append(prover)
    engine.run(until=HYDRA_HORIZON)
    for prover in provers:
        for slot in prover.store:
            if slot is None:
                sha.update(b"empty")
            else:
                sha.update(repr((slot.timestamp, slot.duration)).encode())
                sha.update(slot.digest)
                sha.update(slot.tag)
        sha.update(repr((prover.measurements_taken,
                         prover.measurements_aborted,
                         prover.measurements_missed)).encode())
    sha.update(str(engine.events_processed).encode())
    return sha.hexdigest(), engine.events_processed


def test_hydra_irregular_lenient_provers_simulate_identically():
    digest, events = _hydra_twin_digest()
    assert events == EXPECTED_HYDRA_EVENTS
    assert digest == EXPECTED_HYDRA_DIGEST
