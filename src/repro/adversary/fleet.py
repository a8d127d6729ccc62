"""Fleet-native adversaries: the paper's threat model against a fleet.

The single-device classes in :mod:`repro.adversary.malware` /
:mod:`repro.adversary.tamper` drive one ``SecurityArchitecture``.  A
campaign is fleet-wide: it picks victims from the roster of
:class:`~repro.fleet.profiles.ProvisionedDevice`\\ s, schedules its
activity onto the fleet's shared :class:`~repro.sim.SimulationEngine`,
and records per-device ground-truth :class:`Infection` intervals that
the analysis layer matches against the verifier's
:class:`~repro.core.verification.VerificationReport` stream.

:class:`FleetAdversary` is the seam: deterministic victim selection
(per-device seeds derived as ``"{seed}/{device_id}"`` — string seeding
hashes with SHA-512, so the plan is identical across processes),
``deploy(engine, horizon)`` to schedule everything, and
``ground_truth()`` for the infection record.  The concrete adversaries
reuse the single-device classes underneath, one instance per victim,
so the legacy API keeps working unchanged.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.adversary.malware import Infection, MobileMalware, PersistentMalware
from repro.adversary.tamper import TamperingMalware
from repro.fleet.profiles import ProvisionedDevice
from repro.sim.engine import SimulationEngine

#: Default payload fleet adversaries implant when none is given.
DEFAULT_MALICIOUS_IMAGE = b"fleet-malware-payload-v1"

Roster = Union[Mapping[str, ProvisionedDevice], Iterable[ProvisionedDevice]]


def _as_roster(devices: Roster) -> Dict[str, ProvisionedDevice]:
    """Normalize any device collection into an id-ordered mapping."""
    if isinstance(devices, Mapping):
        return dict(devices)
    return {device.device_id: device for device in devices}


class FleetAdversary(abc.ABC):
    """One adversary acting across a whole provisioned fleet.

    Parameters
    ----------
    devices:
        The fleet roster — a mapping of device id to
        :class:`ProvisionedDevice` (e.g. what ``Fleet.devices()``
        yields) or any iterable of provisioned devices.
    victim_ids:
        Explicit victims.  Mutually exclusive with ``victim_fraction``.
    victim_fraction:
        Fraction of the roster to victimize (at least one device when
        positive), sampled deterministically from ``seed``.
    seed:
        Master seed; every per-victim random stream is derived from it
        and the device id, so the same roster and seed always produce
        the same campaign regardless of process or iteration order.
    """

    def __init__(self, devices: Roster, *,
                 victim_ids: Optional[Sequence[str]] = None,
                 victim_fraction: Optional[float] = None,
                 seed: int = 0) -> None:
        self.devices = _as_roster(devices)
        if not self.devices:
            raise ValueError("a fleet adversary needs at least one device")
        if victim_ids is not None and victim_fraction is not None:
            raise ValueError(
                "pass either victim_ids or victim_fraction, not both")
        self.seed = seed
        roster = list(self.devices)
        if victim_ids is not None:
            unknown = [device_id for device_id in victim_ids
                       if device_id not in self.devices]
            if unknown:
                raise ValueError(
                    f"victim ids not in the fleet roster: {unknown}")
            self.victims: List[str] = list(victim_ids)
        else:
            fraction = 1.0 if victim_fraction is None else victim_fraction
            if not 0.0 < fraction <= 1.0:
                raise ValueError("victim_fraction must be in (0, 1]")
            count = max(1, round(fraction * len(roster)))
            rng = random.Random(f"{seed}/victims")
            self.victims = sorted(rng.sample(roster, count))
        self._deployed = False

    def _victim_rng(self, device_id: str) -> random.Random:
        """The victim's private random stream (process-stable)."""
        return random.Random(f"{self.seed}/{device_id}")

    def device(self, device_id: str) -> ProvisionedDevice:
        """Look up one roster device."""
        return self.devices[device_id]

    @abc.abstractmethod
    def deploy(self, engine: SimulationEngine, horizon: float) -> None:
        """Schedule the whole campaign onto the shared engine."""

    @abc.abstractmethod
    def ground_truth(self) -> Dict[str, List[Infection]]:
        """Per-device infection intervals, keyed by device id.

        Transient entries gain their ``end`` as the simulation runs;
        read this after the engine has drained the horizon.
        """

    def _require_undeployed(self) -> None:
        if self._deployed:
            raise RuntimeError(
                f"{type(self).__name__} was already deployed; build a new "
                f"adversary for a new campaign")
        self._deployed = True


class FleetMobileMalware(FleetAdversary):
    """Mobile-malware visits against each victim (Figure 1, infection 1).

    Visit arrivals per victim follow a Poisson process of rate
    ``arrival_rate``; each visit dwells either exactly ``dwell`` seconds
    (fixed-dwell campaigns, the Figure-1 sweep) or an exponential draw
    with mean ``mean_dwell``.  Visits never overlap, and a visit that
    would not finish before ``horizon`` is dropped rather than
    truncated, so every scheduled dwell is exactly what the detection
    analytics assume.
    """

    def __init__(self, devices: Roster, *,
                 arrival_rate: float,
                 dwell: Optional[float] = None,
                 mean_dwell: Optional[float] = None,
                 malicious_image: bytes = DEFAULT_MALICIOUS_IMAGE,
                 victim_ids: Optional[Sequence[str]] = None,
                 victim_fraction: Optional[float] = None,
                 seed: int = 0) -> None:
        super().__init__(devices, victim_ids=victim_ids,
                         victim_fraction=victim_fraction, seed=seed)
        if arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if (dwell is None) == (mean_dwell is None):
            raise ValueError("pass exactly one of dwell= or mean_dwell=")
        if dwell is not None and dwell <= 0:
            raise ValueError("dwell time must be positive")
        if mean_dwell is not None and mean_dwell <= 0:
            raise ValueError("mean dwell time must be positive")
        if not malicious_image:
            raise ValueError("the malicious image must be non-empty")
        self.arrival_rate = arrival_rate
        self.dwell = dwell
        self.mean_dwell = mean_dwell
        self.malicious_image = malicious_image
        self.malware: Dict[str, MobileMalware] = {}
        self.visits: Dict[str, List[tuple[float, float]]] = {}

    def _plan_visits(self, device_id: str,
                     horizon: float) -> List[tuple[float, float]]:
        rng = self._victim_rng(device_id)
        visits: List[tuple[float, float]] = []
        time = 0.0
        while True:
            time += rng.expovariate(self.arrival_rate)
            if time >= horizon:
                break
            dwell = self.dwell if self.dwell is not None \
                else rng.expovariate(1.0 / self.mean_dwell)
            if time + dwell > horizon:
                # Dropped, not truncated: a clipped dwell would skew
                # the dwell-vs-detection curve the campaign measures.
                time += dwell
                continue
            visits.append((time, dwell))
            time += dwell
        return visits

    def deploy(self, engine: SimulationEngine, horizon: float) -> None:
        self._require_undeployed()
        for device_id in self.victims:
            device = self.device(device_id)
            malware = MobileMalware(
                device.architecture, device_id,
                clean_image=device.profile.firmware,
                malicious_image=self.malicious_image)
            self.malware[device_id] = malware
            plan = self._plan_visits(device_id, horizon)
            self.visits[device_id] = plan
            for start, dwell in plan:
                malware.schedule_visit(engine, start, dwell)

    def ground_truth(self) -> Dict[str, List[Infection]]:
        return {device_id: list(malware.infections)
                for device_id, malware in self.malware.items()}


class FleetPersistentMalware(FleetAdversary):
    """One persistent infection per victim, arriving inside the horizon.

    Each victim is infected once at a time drawn uniformly from
    ``[0, arrival_window * horizon)`` (or at the fixed ``arrival_time``)
    and stays infected — the baseline every RA scheme detects, used to
    separate "missed because transient" from "missed at all".
    """

    def __init__(self, devices: Roster, *,
                 arrival_time: Optional[float] = None,
                 arrival_window: float = 0.5,
                 malicious_image: bytes = DEFAULT_MALICIOUS_IMAGE,
                 victim_ids: Optional[Sequence[str]] = None,
                 victim_fraction: Optional[float] = None,
                 seed: int = 0) -> None:
        super().__init__(devices, victim_ids=victim_ids,
                         victim_fraction=victim_fraction, seed=seed)
        if not 0.0 < arrival_window <= 1.0:
            raise ValueError("arrival_window must be in (0, 1]")
        if arrival_time is not None and arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if not malicious_image:
            raise ValueError("the malicious image must be non-empty")
        self.arrival_time = arrival_time
        self.arrival_window = arrival_window
        self.malicious_image = malicious_image
        self.malware: Dict[str, PersistentMalware] = {}

    def deploy(self, engine: SimulationEngine, horizon: float) -> None:
        self._require_undeployed()
        for device_id in self.victims:
            device = self.device(device_id)
            malware = PersistentMalware(device.architecture, device_id,
                                        self.malicious_image)
            self.malware[device_id] = malware
            arrival = self.arrival_time if self.arrival_time is not None \
                else self._victim_rng(device_id).uniform(
                    0.0, self.arrival_window * horizon)
            malware.schedule(engine, arrival)

    def ground_truth(self) -> Dict[str, List[Infection]]:
        return {device_id: list(malware.infections)
                for device_id, malware in self.malware.items()}


class FleetTamperingMalware(FleetAdversary):
    """Per-victim tampering with the measurement buffer (Section 3.2).

    At each time in ``times`` every victim's buffer is attacked with
    ``action`` (any mutating :class:`TamperingMalware` method name:
    ``corrupt_latest``, ``delete_latest``, ``replay_old_measurement``,
    ``reorder``, ``wipe_all``).  Ground truth records one open-ended
    :class:`Infection` per tamper with an empty ``malicious_image`` —
    there is no implant on the device, only damaged evidence, which the
    verifier flags as ``TAMPERED`` at the next collection.
    """

    ACTIONS = ("corrupt_latest", "delete_latest", "replay_old_measurement",
               "reorder", "wipe_all")

    def __init__(self, devices: Roster, *,
                 times: Sequence[float],
                 action: str = "corrupt_latest",
                 victim_ids: Optional[Sequence[str]] = None,
                 victim_fraction: Optional[float] = None,
                 seed: int = 0) -> None:
        super().__init__(devices, victim_ids=victim_ids,
                         victim_fraction=victim_fraction, seed=seed)
        if not times:
            raise ValueError("at least one tamper time is required")
        if any(time < 0 for time in times):
            raise ValueError("tamper times must be non-negative")
        if action not in self.ACTIONS:
            raise ValueError(f"unknown tamper action {action!r}; "
                             f"known: {', '.join(self.ACTIONS)}")
        self.times = sorted(times)
        self.action = action
        self.tamperers: Dict[str, TamperingMalware] = {}
        self._infections: Dict[str, List[Infection]] = {}

    def _tamper(self, device_id: str, time: float) -> None:
        getattr(self.tamperers[device_id], self.action)()
        self._infections.setdefault(device_id, []).append(
            Infection(device_id=device_id, start=time, malicious_image=b""))

    def deploy(self, engine: SimulationEngine, horizon: float) -> None:
        self._require_undeployed()
        for device_id in self.victims:
            device = self.device(device_id)
            self.tamperers[device_id] = TamperingMalware(
                device.prover.store,
                seed=self._victim_rng(device_id).randrange(2 ** 31))
            for time in self.times:
                if time > horizon:
                    continue
                engine.schedule(
                    time,
                    lambda d=device_id: self._tamper(d, engine.now))

    def ground_truth(self) -> Dict[str, List[Infection]]:
        return {device_id: list(infections)
                for device_id, infections in self._infections.items()}


class FleetScheduleAwareMalware(FleetAdversary):
    """Schedule-aware mobile malware across the fleet (Section 3.5).

    Each victim's malware watches the device's externally observable
    measurement activity (via the prover's measurement listeners) and
    enters immediately after a measurement completes — the optimal
    entry point under any schedule — staying for ``dwell`` seconds.
    Against a regular schedule with ``dwell < T_M`` it always evades;
    against irregular CSPRNG intervals the next measurement time is
    unpredictable and short draws catch it.  Crucially, the adversary
    never touches the prover's scheduler: consuming the live CSPRNG
    stream would desynchronize the device's actual schedule.
    """

    #: Gap between an observed measurement and the infection landing.
    ENTRY_DELAY = 1e-6

    def __init__(self, devices: Roster, *,
                 dwell: float,
                 cooldown: float = 0.0,
                 malicious_image: bytes = DEFAULT_MALICIOUS_IMAGE,
                 victim_ids: Optional[Sequence[str]] = None,
                 victim_fraction: Optional[float] = None,
                 seed: int = 0) -> None:
        super().__init__(devices, victim_ids=victim_ids,
                         victim_fraction=victim_fraction, seed=seed)
        if dwell <= 0:
            raise ValueError("dwell time must be positive")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.dwell = dwell
        self.cooldown = cooldown
        self.malicious_image = malicious_image
        self.malware: Dict[str, MobileMalware] = {}
        self._next_entry_allowed: Dict[str, float] = {}
        self._horizon = 0.0
        self._engine: Optional[SimulationEngine] = None

    def _on_measurement(self, device_id: str, time: float,
                        measurement: object) -> None:
        del measurement  # observed activity matters, not its outcome
        engine = self._engine
        malware = self.malware[device_id]
        if engine is None or malware.currently_active:
            return
        entry = time + self.ENTRY_DELAY
        if entry < self._next_entry_allowed[device_id]:
            return
        if entry + self.dwell > self._horizon:
            return
        self._next_entry_allowed[device_id] = entry + self.dwell \
            + self.cooldown
        malware.schedule_visit(engine, entry, self.dwell)

    def deploy(self, engine: SimulationEngine, horizon: float) -> None:
        self._require_undeployed()
        self._engine = engine
        self._horizon = horizon
        for device_id in self.victims:
            device = self.device(device_id)
            self.malware[device_id] = MobileMalware(
                device.architecture, device_id,
                clean_image=device.profile.firmware,
                malicious_image=self.malicious_image)
            self._next_entry_allowed[device_id] = 0.0
            device.prover.measurement_listeners.append(
                lambda d, t, m, device_id=device_id:
                self._on_measurement(device_id, t, m))

    def ground_truth(self) -> Dict[str, List[Infection]]:
        return {device_id: list(malware.infections)
                for device_id, malware in self.malware.items()}
