"""Workload specifications, fleet builders and the output oracle.

A workload is one seeded fleet deployment driven in a closed loop: one
verifier client, one collection round in flight, then
``Fleet.run_until`` to the next collection time.  The specs here are
plain data; everything that imports ``repro`` happens inside the
builder functions, so ``run.py`` can read the table before it has
checked that the program's sources are present.

The oracle predicts, from the adversaries' ground truth and the fleet's
measurement schedule alone, the status every device must have after
every round, and compares each report against it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Timed rounds per pass.  Fixed on every commit, so drift that grows
#: with the round count shows up as the same figures every time.
TIMED_ROUNDS = 4

#: Untimed rounds before the timed window (caches, judges, lazy state).
WARMUP_ROUNDS = 1

#: ``FleetVerifier.restore`` repetitions after each pass.
RESTORES = 15

#: Measurement interval ``T_M`` shared by every workload (seconds).
MEASUREMENT_INTERVAL = 60.0

#: Timed rounds (0-based, counted after the warm-up) whose collection
#: is preceded by a buffer tamper on the tamper victims.
TAMPER_ROUNDS = (1, 3)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: fleet shape, transport and adversaries."""

    name: str
    devices: int
    collection_interval: float
    buffer_slots: int
    transport: str
    shards: Optional[int]
    worker_mode: str
    store: str
    jsonl_sink: bool
    obs: bool
    persistent_fraction: float
    tamper_fraction: float
    why: str

    @property
    def measurements_per_response(self) -> int:
        return int(round(self.collection_interval / MEASUREMENT_INTERVAL))

    @property
    def worker_processes(self) -> int:
        """Verification worker processes the fleet spawns (0 in-process)."""
        return self.shards if self.worker_mode == "process" else 0

    def round_times(self) -> List[float]:
        """Nominal virtual time of every round of a pass, warm-up first."""
        return [self.collection_interval * (index + 1)
                for index in range(WARMUP_ROUNDS + TIMED_ROUNDS)]


WORKLOADS: Dict[str, Workload] = {spec.name: spec for spec in (
    Workload(
        name="inproc-long-history", devices=1000,
        collection_interval=1800.0, buffer_slots=32,
        transport="in-process", shards=None, worker_mode="loop",
        store="memory", jsonl_sink=False, obs=False,
        persistent_fraction=0.02, tamper_fraction=0.0,
        why="30 measurements per response, no wire, no durable I/O: "
            "decode, MAC verdicts, check_schedule and prover serving "
            "dominate the round"),
    Workload(
        name="simnet-durable-sharded", devices=2000,
        collection_interval=600.0, buffer_slots=16,
        transport="simulated-network", shards=4, worker_mode="loop",
        store="sqlite", jsonl_sink=True, obs=True,
        persistent_fraction=0.02, tamper_fraction=0.01,
        why="per-device work dominates: packet simulator, shard merge, "
            "SQLite appends and checkpoints, JSONL sink, obs hooks; the "
            "only MAC-fail path and durable restore"),
    Workload(
        name="socket-process", devices=2000,
        collection_interval=600.0, buffer_slots=16,
        transport="socket", shards=2, worker_mode="process",
        store="memory", jsonl_sink=False, obs=False,
        persistent_fraction=0.02, tamper_fraction=0.0,
        why="verification leaves the parent: loopback UDP socket I/O, "
            "the worker frame codec and apply_worker_batch carry the "
            "parent's round"),
)}


# ----------------------------------------------------------------------
# Fleet construction
# ----------------------------------------------------------------------

def master_secret(seed: int) -> bytes:
    """Per-seed master secret (every device key derives from it).

    A digest, so it fits the 32-byte MAC key limit for any seed.
    """
    return hashlib.sha256(
        f"perfbench-master-secret/{seed}".encode("utf-8")).digest()


def build_profile(spec: Workload):
    from repro.fleet import DeviceProfile
    return DeviceProfile.smartplus(
        firmware=b"perfbench-firmware", application_size=512,
        measurement_interval=MEASUREMENT_INTERVAL,
        collection_interval=spec.collection_interval,
        buffer_slots=spec.buffer_slots)


@dataclass
class Deployment:
    """A provisioned fleet plus everything the pass needs to check it."""

    spec: Workload
    fleet: object
    store: object
    store_path: Optional[str]
    persistent: object
    tampering: Optional[object]
    tamper_times: List[float]


def provision(spec: Workload, seed: int, work_dir: str,
              sinks: Sequence[object] = ()) -> Deployment:
    """Provision, enroll and arm the adversaries of one workload."""
    import os

    from repro.adversary.fleet import (
        FleetPersistentMalware,
        FleetTamperingMalware,
    )
    from repro.fleet import Fleet, JsonlSink
    from repro.obs import Observability
    from repro.store import MemoryStore, SqliteStore

    count = spec.devices
    store_path = None
    if spec.store == "sqlite":
        store_path = os.path.join(work_dir, "state.sqlite")
        store = SqliteStore(store_path)
    else:
        store = MemoryStore()
    round_sinks = []
    if spec.jsonl_sink:
        round_sinks.append(JsonlSink(os.path.join(work_dir, "reports.jsonl")))
    # Timing sinks go last: a report's latency includes the sinks
    # before them.
    round_sinks.extend(sinks)
    fleet = Fleet.provision(
        build_profile(spec), count, master_secret=master_secret(seed),
        transport=spec.transport, sinks=round_sinks, store=store,
        shards=spec.shards, worker_mode=spec.worker_mode,
        obs=Observability(seed=seed) if spec.obs else None)

    horizon = spec.round_times()[-1]
    roster = {device.device_id: device for device in fleet.devices()}
    # Arrivals land in the first half of the pass, so every infection
    # is exposed before the last round.
    persistent = FleetPersistentMalware(
        roster, victim_fraction=spec.persistent_fraction, seed=seed,
        arrival_window=0.5)
    persistent.deploy(fleet.engine, horizon)
    tampering = None
    tamper_times: List[float] = []
    if spec.tamper_fraction:
        # Disjoint from the persistent victims, so every device has one
        # expected cause at most.
        clean = sorted(set(roster) - set(persistent.victims))
        victims = sorted(random.Random(f"{seed}/tamper").sample(
            clean, max(1, round(spec.tamper_fraction * count))))
        times = spec.round_times()
        # Half a measurement interval before the round: the corrupted
        # record is among the k newest when the round collects.
        tamper_times = [times[WARMUP_ROUNDS + index]
                        - MEASUREMENT_INTERVAL / 2
                        for index in TAMPER_ROUNDS]
        tampering = FleetTamperingMalware(
            roster, times=tamper_times, action="corrupt_latest",
            victim_ids=victims, seed=seed)
        tampering.deploy(fleet.engine, horizon)
    return Deployment(spec=spec, fleet=fleet, store=store,
                      store_path=store_path, persistent=persistent,
                      tampering=tampering, tamper_times=tamper_times)


def close_deployment(deployment: Deployment) -> None:
    """Close the fleet (sinks, store, worker pool) and its transport."""
    fleet = deployment.fleet
    try:
        fleet.close()
    finally:
        close = getattr(fleet.transport, "close", None)
        if close is not None:
            close()


def restore_once(deployment: Deployment):
    """Resume a verifier from the deployment's store, as after a restart."""
    from repro.fleet import FleetVerifier
    from repro.store import SqliteStore

    config = deployment.fleet.profile.config
    if deployment.store_path is None:
        return FleetVerifier.restore(config, deployment.store)
    store = SqliteStore(deployment.store_path)
    try:
        return FleetVerifier.restore(config, store)
    finally:
        store.close()


def health_bytes(health) -> bytes:
    """Canonical bytes of a ``FleetHealth`` aggregate."""
    return json.dumps(health.to_row(), sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# Output oracle
# ----------------------------------------------------------------------

def first_measurement_at_or_after(offset: float, arrival: float) -> float:
    """Engine time of a device's first measurement at or after ``arrival``.

    Mirrors the regular schedule's arithmetic: the first measurement is
    due one ``T_M`` after the device's start offset and each next one
    one ``T_M`` after the previous.
    """
    due = offset + MEASUREMENT_INTERVAL
    while due < arrival:
        due = due + MEASUREMENT_INTERVAL
    return due


class Oracle:
    """Expected status of every device after every round of a pass."""

    def __init__(self, deployment: Deployment) -> None:
        spec = deployment.spec
        fleet = deployment.fleet
        self.round_times = spec.round_times()
        ids = fleet.device_ids()
        count = len(ids)
        # Fleet.provision staggers start offsets across one T_M.
        self.offsets = {device_id: (index / count) * MEASUREMENT_INTERVAL
                        for index, device_id in enumerate(ids)}
        self.device_ids = ids
        self.persistent = deployment.persistent
        self.tampering = deployment.tampering
        self.tamper_times = deployment.tamper_times
        self.tamper_victims = set(deployment.tampering.victims) \
            if deployment.tampering is not None else set()
        #: Reports that flagged a device, by round index.
        self.flagged: List[List[object]] = []
        self.failures: List[str] = []
        self.attempted = 0

    def exposure_round(self, device_id: str, arrival: float
                       ) -> Optional[int]:
        """First round whose collection carries evidence of ``arrival``."""
        evidence = first_measurement_at_or_after(self.offsets[device_id],
                                                 arrival)
        for index, time in enumerate(self.round_times):
            if evidence <= time:
                return index
        return None

    def expected(self, round_index: int) -> Dict[str, str]:
        """Non-healthy statuses expected after one round."""
        time = self.round_times[round_index]
        previous = self.round_times[round_index - 1] if round_index else 0.0
        expected: Dict[str, str] = {}
        for device_id, infections in self.persistent.ground_truth().items():
            for infection in infections:
                if infection.start > time:
                    continue
                exposed = self.exposure_round(device_id, infection.start)
                if exposed is not None and exposed <= round_index:
                    expected[device_id] = "infected"
        if any(previous < tamper <= time for tamper in self.tamper_times):
            for device_id in self.tamper_victims:
                expected[device_id] = "tampered"
        return expected

    def check_round(self, round_index: int, reports, lost: int) -> None:
        """Compare one round's reports with the expected statuses."""
        expected = self.expected(round_index)
        self.attempted += len(self.device_ids)
        seen: Dict[str, str] = {}
        flagged = []
        for report in reports:
            status = report.status.value
            if report.device_id in seen:
                self.failures.append(
                    f"round {round_index}: duplicate report for "
                    f"{report.device_id}")
                continue
            seen[report.device_id] = status
            if status != "healthy":
                flagged.append(report)
        self.flagged.append(flagged)
        if lost:
            self.failures.append(f"round {round_index}: {lost} response(s) "
                                 f"lost")
        for device_id in self.device_ids:
            status = seen.get(device_id)
            want = expected.get(device_id, "healthy")
            if status is None:
                self.failures.append(
                    f"round {round_index}: no report for {device_id}")
            elif status != want:
                self.failures.append(
                    f"round {round_index}: {device_id} is {status}, "
                    f"expected {want}")

    def check_detection(self) -> None:
        """Every ground-truth event is flagged at its first exposing round.

        Uses the analysis layer's own matcher: the report it credits
        with exposing each infection or tamper must belong to the round
        the oracle predicted.
        """
        from repro.analysis.detection import (
            first_exposing_report,
            match_fleet_reports,
        )

        truth: Dict[str, list] = {}
        for adversary in (self.persistent, self.tampering):
            if adversary is None:
                continue
            for device_id, infections in adversary.ground_truth().items():
                truth.setdefault(device_id, []).extend(infections)
        reports = [report for flagged in self.flagged for report in flagged]
        summary = match_fleet_reports(truth, reports)
        self.attempted += summary.total_infections
        if summary.detected_infections != summary.total_infections:
            self.failures.append(
                f"{summary.total_infections - summary.detected_infections} "
                f"of {summary.total_infections} ground-truth events never "
                f"flagged")
        for device_id, infections in truth.items():
            own = [report for report in reports
                   if report.device_id == device_id]
            for infection in infections:
                exposing = first_exposing_report(infection, own)
                if exposing is None:
                    continue
                if infection.malicious_image:
                    want = self.exposure_round(device_id, infection.start)
                else:
                    want = next(index for index, time
                                in enumerate(self.round_times)
                                if time >= infection.start)
                got = next((index for index, flagged
                            in enumerate(self.flagged)
                            if any(report is exposing for report in flagged)),
                           None)
                if got != want:
                    self.failures.append(
                        f"{device_id}: event at {infection.start:.3f} "
                        f"flagged in round {got}, expected round {want}")

