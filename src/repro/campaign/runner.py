"""The campaign runner: scenario cells against real provisioned fleets.

``run_scenario`` executes one :class:`~repro.campaign.scenario.
Scenario` end to end — provision the fleet, deploy the adversary onto
the shared engine, alternate measurement windows with collection
rounds (skipping rounds inside verifier downtime, recovering from
injected store crashes via :meth:`repro.fleet.FleetVerifier.restore`)
— and scores the verifier's report stream against the adversary's
ground truth.  :class:`CampaignRunner` sweeps a grid of cells with
:class:`~repro.analysis.sweep.ParameterSweep`-style worker fan-out and
emits one JSON artifact: detection probability, time-to-detection, QoA
and per-round :class:`~repro.fleet.sinks.RoundStats` per cell.

Every quantity in a cell's row is a pure function of its scenario
(virtual-time simulation, seeded adversaries); wall-clock timing lives
in the artifact's separate ``timing`` section so the rows themselves
are byte-reproducible.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.adversary.fleet import (
    FleetAdversary,
    FleetMobileMalware,
    FleetPersistentMalware,
    FleetScheduleAwareMalware,
    FleetTamperingMalware,
)
from repro.analysis.detection import FleetDetectionSummary, match_fleet_reports
from repro.analysis.sweep import ParameterSweep
from repro.campaign.faults import CrashOnceStore, PartitionInjector
from repro.campaign.scenario import Scenario, ScenarioGrid
from repro.core.config import ErasmusConfig, ScheduleKind
from repro.core.qoa import QoA
from repro.core.verification import VerificationReport
from repro.fleet.profiles import DeviceProfile
from repro.fleet.service import Fleet, FleetVerifier
from repro.fleet.sinks import RoundStats
from repro.fleet.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    SwarmRelayTransport,
    Transport,
)
from repro.net.mobility import (
    MobilityModel,
    PartitionMergeMobility,
    RandomWaypointMobility,
)
from repro.sim.engine import SimulationEngine
from repro.store import MemoryStore, StoreError

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.obs.service import Observability


def _fleet_device_names(scenario: Scenario) -> List[str]:
    """The ids ``Fleet.provision`` will assign, in provisioning order."""
    return [f"dev-{index:04d}" for index in range(scenario.devices)]


def _build_config(scenario: Scenario) -> ErasmusConfig:
    """The prover/verifier deployment config one cell runs under."""
    interval = scenario.effective_measurement_interval
    k = scenario.measurements_per_collection
    # Evidence must survive in the rolling buffer until it is
    # collected; downtime windows make the verifier skip rounds, so
    # the buffer has to bridge one extra collection interval.
    slots = 2 * k + 2 if scenario.verifier_downtime else k + 2
    schedule = ScheduleKind.IRREGULAR if scenario.schedule == "irregular" \
        else ScheduleKind.REGULAR
    return ErasmusConfig(measurement_interval=interval,
                         collection_interval=scenario.collection_interval,
                         buffer_slots=slots, schedule=schedule)


def _build_mobility(scenario: Scenario) -> Optional[MobilityModel]:
    names = _fleet_device_names(scenario)
    if scenario.mobility == "waypoint":
        return RandomWaypointMobility(
            names, area_size=scenario.mobility_area,
            radio_range=scenario.radio_range,
            speed=scenario.mobility_speed, seed=scenario.seed)
    if scenario.mobility == "partition-merge":
        return PartitionMergeMobility(
            names, groups=scenario.partition_groups,
            period=scenario.partition_period,
            merged_fraction=scenario.merged_fraction,
            area_size=scenario.mobility_area)
    return None


def _transport_factory(scenario: Scenario
                       ) -> Callable[[SimulationEngine], Transport]:
    """A ``Fleet.provision``-compatible transport factory for one cell.

    Fault injection wraps the built transport — the underlying
    transport classes are driven unmodified.
    """
    def build(engine: SimulationEngine) -> Transport:
        if scenario.transport == "swarm-relay":
            inner: Transport = SwarmRelayTransport(
                engine, mobility=_build_mobility(scenario),
                loss_probability=scenario.loss_probability,
                seed=scenario.seed)
        elif scenario.transport == "simulated-network":
            inner = SimulatedNetworkTransport(
                engine, loss_probability=scenario.loss_probability,
                seed=scenario.seed)
        else:
            inner = InProcessTransport(engine)
        if scenario.fault_partition_windows:
            inner = PartitionInjector(
                inner, scenario.fault_partition_windows,
                fraction=scenario.fault_partition_fraction,
                seed=scenario.seed)
        return inner
    return build


def build_adversary(scenario: Scenario, fleet: Fleet
                    ) -> Optional[FleetAdversary]:
    """The cell's adversary, targeting the provisioned fleet roster."""
    roster = {device_id: fleet.device(device_id)
              for device_id in fleet.device_ids()}
    if scenario.malware == "none":
        return None
    if scenario.malware == "mobile":
        return FleetMobileMalware(
            roster, arrival_rate=scenario.arrival_rate,
            dwell=scenario.dwell, mean_dwell=scenario.mean_dwell,
            victim_fraction=scenario.victim_fraction, seed=scenario.seed)
    if scenario.malware == "persistent":
        return FleetPersistentMalware(
            roster, victim_fraction=scenario.victim_fraction,
            seed=scenario.seed)
    if scenario.malware == "schedule-aware":
        dwell = scenario.dwell if scenario.dwell is not None \
            else scenario.mean_dwell
        return FleetScheduleAwareMalware(
            roster, dwell=dwell,
            victim_fraction=scenario.victim_fraction, seed=scenario.seed)
    assert scenario.malware == "tampering"
    # Strike just before each surviving collection, while the damaged
    # records are still inside the window the verifier will read.
    interval = scenario.effective_measurement_interval
    times = [time - interval / 2
             for time in scenario.active_collection_times()]
    return FleetTamperingMalware(
        roster, times=times, victim_fraction=scenario.victim_fraction,
        seed=scenario.seed)


def _round_row(stats: RoundStats) -> Dict[str, object]:
    """One round's mechanics, wall-clock excluded (machine-dependent)."""
    return {
        "requests_sent": stats.requests_sent,
        "responses_received": stats.responses_received,
        "responses_lost": stats.responses_lost,
        "stale_responses_rejected": stats.stale_responses_rejected,
        "shards": stats.shards,
    }


@dataclass
class CellResult:
    """Outcome of one scenario cell: detection, QoA and round mechanics."""

    scenario: Scenario
    detection: FleetDetectionSummary
    rounds: List[RoundStats] = field(default_factory=list)
    skipped_rounds: int = 0
    recovered_rounds: int = 0
    dropped_exchanges: int = 0
    #: Wall-clock cost of running the cell; machine-dependent, so kept
    #: out of :meth:`to_row` (see the artifact's ``timing`` section).
    wall_seconds: float = 0.0
    #: The cell's child :class:`repro.obs.Observability` (its private
    #: tracer + registry), when the campaign ran observed; excluded
    #: from :meth:`to_row` — reports are emitted from it separately.
    obs: Optional["Observability"] = field(default=None, repr=False)

    @property
    def qoa(self) -> QoA:
        """The cell's Quality-of-Attestation parameters."""
        return QoA(self.scenario.effective_measurement_interval,
                   self.scenario.collection_interval,
                   on_demand_only=self.scenario.protocol == "on-demand")

    def analytic_detection(self) -> Optional[float]:
        """``min(1, dwell / T_M)`` for dwell-bearing adversaries."""
        dwell = self.scenario.dwell if self.scenario.dwell is not None \
            else self.scenario.mean_dwell
        if dwell is None or self.scenario.malware not in (
                "mobile", "schedule-aware"):
            return None
        return self.qoa.detection_probability(dwell)

    def to_row(self) -> Dict[str, object]:
        """One deterministic JSON row for the campaign artifact."""
        detection = self.detection
        return {
            "scenario": self.scenario.to_row(),
            "detection": {
                "total_infections": detection.total_infections,
                "detected_infections": detection.detected_infections,
                "detection_rate": detection.detection_rate,
                "mean_time_to_detection_s": detection.mean_latency,
                "max_time_to_detection_s": detection.max_latency,
                "infected_devices": detection.infected_devices,
                "detected_devices": detection.detected_devices,
                "analytic_detection_rate": self.analytic_detection(),
            },
            "qoa": {
                "measurements_per_collection":
                    self.qoa.measurements_per_collection,
                "expected_freshness_s": self.qoa.expected_freshness,
                "expected_detection_latency_s":
                    self.qoa.expected_detection_latency(),
            },
            "rounds": [_round_row(stats) for stats in self.rounds],
            "skipped_rounds": self.skipped_rounds,
            "recovered_rounds": self.recovered_rounds,
            "dropped_exchanges": self.dropped_exchanges,
        }


def run_scenario(scenario: Scenario,
                 master_secret: Optional[bytes] = None,
                 obs: Optional["Observability"] = None) -> CellResult:
    """Run one scenario cell end to end on a real provisioned fleet.

    ``obs`` lights up the cell: the runner forks a **child**
    observability (:meth:`repro.obs.Observability.for_cell`, named
    after the scenario) and provisions the cell's fleet with it, so
    every cell records into its own tracer and registry — concurrent
    cells re-start round numbering per cell and would collide in one
    shared tracer otherwise.  When the cell finishes, its metrics are
    absorbed into the parent registry under a ``cell`` label
    (``repro_cell_*`` families), the parent's campaign counters record
    the cell (count, wall time, skipped/recovered rounds), and the
    child rides home on :attr:`CellResult.obs` for per-cell reports.
    """
    started = _time.perf_counter()
    cell_obs: Optional["Observability"] = None
    if obs is not None and obs.enabled:
        cell_obs = obs.for_cell(scenario.name)
    config = _build_config(scenario)
    profile = DeviceProfile.smartplus(application_size=256, config=config)
    engine = SimulationEngine()
    store = None
    if scenario.store_crash_round is not None:
        # Crash mid-way through the configured round: after every
        # earlier round's reports plus half of that round's.
        crash_after = (scenario.store_crash_round - 1) * scenario.devices \
            + scenario.devices // 2
        store = CrashOnceStore(MemoryStore(), crash_after)
    secret = master_secret if master_secret is not None \
        else f"campaign-master/{scenario.seed}".encode()
    fleet = Fleet.provision(
        profile, scenario.devices, master_secret=secret,
        transport=_transport_factory(scenario), engine=engine, store=store,
        stagger=scenario.protocol != "on-demand", obs=cell_obs)
    skipped = 0
    recovered = 0
    rounds: List[RoundStats] = []
    reports: List[VerificationReport] = []
    try:
        adversary = build_adversary(scenario, fleet)
        if adversary is not None:
            adversary.deploy(engine, scenario.horizon)
        for collection_time in scenario.collection_times():
            fleet.run_until(collection_time)
            if scenario.in_downtime(collection_time):
                skipped += 1
                continue
            try:
                round_reports = fleet.collect_all()
            except StoreError:
                # The journal write died mid-round; resume the
                # deployment from the very store that crashed and
                # re-run the round — the restart drill of PR 3, now a
                # campaign fault.
                assert store is not None
                fleet.verifier = FleetVerifier.restore(config, store)
                recovered += 1
                round_reports = fleet.collect_all()
            rounds.append(round_reports.stats)
            reports.extend(round_reports)
        fleet.run_until(scenario.horizon)
        ground_truth = adversary.ground_truth() if adversary is not None \
            else {}
        detection = match_fleet_reports(ground_truth, reports)
        dropped = getattr(fleet.transport, "dropped_exchanges", 0)
        result = CellResult(scenario=scenario, detection=detection,
                            rounds=rounds, skipped_rounds=skipped,
                            recovered_rounds=recovered,
                            dropped_exchanges=dropped,
                            wall_seconds=_time.perf_counter() - started,
                            obs=cell_obs)
        if obs is not None and obs.enabled:
            if cell_obs is not None:
                obs.absorb_cell(cell_obs)
            obs.cell_finished(result.wall_seconds,
                              skipped_rounds=result.skipped_rounds,
                              recovered_rounds=result.recovered_rounds)
        return result
    finally:
        fleet.close()


class CampaignRunner:
    """Sweep a scenario grid (or explicit cells) and emit one artifact.

    Cells are independent simulations, so ``max_workers`` fans them out
    — :class:`~repro.analysis.sweep.ParameterSweep` preserves cell
    order either way, and every row is a pure function of its scenario,
    so the artifact's ``cells`` section is identical no matter how the
    sweep was parallelized.
    """

    def __init__(self, scenarios: Union[ScenarioGrid, Sequence[Scenario]],
                 name: str = "campaign",
                 max_workers: Optional[int] = None,
                 obs: Optional["Observability"] = None) -> None:
        if isinstance(scenarios, ScenarioGrid):
            self.cells = scenarios.cells()
        else:
            self.cells = list(scenarios)
        if not self.cells:
            raise ValueError("a campaign needs at least one scenario cell")
        self.name = name
        self.max_workers = max_workers
        self.obs = obs
        self.results: List[CellResult] = []

    def run(self) -> List[CellResult]:
        """Run every cell (optionally fanned out); results in cell order."""
        sweep = ParameterSweep({"index": list(range(len(self.cells)))})
        sweep.run(lambda index: run_scenario(self.cells[index],
                                             obs=self.obs),
                  max_workers=self.max_workers)
        self.results = list(sweep.outcomes())
        return self.results

    def rows(self) -> List[Dict[str, object]]:
        """Every cell's deterministic JSON row, in cell order."""
        return [result.to_row() for result in self.results]

    def artifact(self) -> Dict[str, object]:
        """The campaign artifact: deterministic rows + separate timing."""
        return {
            "campaign": self.name,
            "cell_count": len(self.results),
            "cells": self.rows(),
            "timing": {
                "wall_seconds_per_cell": [
                    result.wall_seconds for result in self.results],
                "wall_seconds_total": sum(
                    result.wall_seconds for result in self.results),
            },
        }

    def write_artifact(self, path: str) -> Dict[str, object]:
        """Serialize the artifact to one JSON file; returns the document."""
        document = self.artifact()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=2)
            handle.write("\n")
        return document
