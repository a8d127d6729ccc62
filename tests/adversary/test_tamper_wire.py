"""Serving a tampered wire-form buffer: the bytes equal the decoded-side encode.

The prover's buffer keeps each record in wire form and a plain
collection joins those bytes.  Whatever tampering malware does to the
slots, the response must be byte-identical to encoding the records
:meth:`MeasurementStore.latest` reads back, for every ``k``.
"""

import random

import pytest

from repro.adversary import TamperingMalware
from repro.core import ErasmusConfig, ErasmusProver, ScheduleKind
from repro.core.protocol import CollectRequest, CollectResponse
from repro.fleet.transport import serve_request
from repro.hydra import build_hydra_architecture
from repro.sim import SimulationEngine
from repro.smartplus import build_smartplus_architecture

KEY = bytes(range(16))
FIRMWARE = b"wire-buffer-firmware" + bytes(100)
SLOTS = 8
ACTIONS = ("delete", "wipe", "corrupt", "replay", "forge", "reorder")


def _prover(kind: str) -> ErasmusProver:
    if kind == "hydra":
        architecture = build_hydra_architecture(
            KEY, application_size=1024, measurement_buffer_size=4096)
    else:
        architecture = build_smartplus_architecture(
            KEY, application_size=512)
    architecture.load_application(FIRMWARE)
    schedule = ScheduleKind.IRREGULAR if kind == "irregular" \
        else ScheduleKind.REGULAR
    config = ErasmusConfig(measurement_interval=10.0, buffer_slots=SLOTS,
                           schedule=schedule, irregular_lower=5.0,
                           irregular_upper=15.0)
    return ErasmusProver(architecture, config, device_id=kind,
                         scheduling_key=KEY)


def _tamper(malware: TamperingMalware, action: str,
            rng: random.Random) -> None:
    if action == "delete":
        malware.delete_latest(rng.randint(1, 3))
    elif action == "wipe":
        malware.wipe_all()
    elif action == "corrupt":
        malware.corrupt_latest()
    elif action == "replay":
        malware.replay_old_measurement()
    elif action == "forge":
        malware.forge_measurement(rng.uniform(0.0, 500.0),
                                  rng.randbytes(32),
                                  tag_length=rng.choice((16, 32)))
    else:
        malware.reorder()


def _assert_served_bytes_match(prover: ErasmusProver) -> None:
    store = prover.store
    occupancy = store.occupancy()
    for k in sorted({0, 1, max(occupancy - 1, 0), occupancy, SLOTS,
                     SLOTS + 5}):
        served = serve_request(prover, CollectRequest(k).encode())
        expected = CollectResponse(measurements=store.latest(k)).encode()
        assert served == expected, k
        assert prover.handle_collect(CollectRequest(k)).encode() == expected


@pytest.mark.parametrize("kind", ["regular", "irregular", "hydra"])
def test_served_bytes_match_after_each_tamper_action(kind):
    prover = _prover(kind)
    engine = SimulationEngine()
    _assert_served_bytes_match(prover)  # empty buffer
    prover.attach(engine)
    malware = TamperingMalware(prover.store, seed=7)
    rng = random.Random(kind)
    until = 0.0
    for action in ACTIONS:
        # Partly full before the first action; later ones see the
        # buffer wrap over the slots the previous ones rewrote.
        until += 55.0
        engine.run(until=until)
        _assert_served_bytes_match(prover)
        _tamper(malware, action, rng)
        _assert_served_bytes_match(prover)
    assert len(malware.actions) == len(ACTIONS)


@pytest.mark.parametrize("kind", ["regular", "irregular", "hydra"])
def test_served_bytes_match_through_a_seeded_tamper_sequence(kind):
    prover = _prover(kind)
    engine = SimulationEngine()
    prover.attach(engine)
    malware = TamperingMalware(prover.store, seed=11)
    rng = random.Random(kind)
    for step in range(1, 41):
        engine.run(until=step * 7.0)
        _tamper(malware, rng.choice(ACTIONS), rng)
        _assert_served_bytes_match(prover)
