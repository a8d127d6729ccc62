"""Stateless measurement-history verification.

This module is the policy-and-crypto half of the verifier role; the
stateful half, enrollments and collection rounds, is
:class:`repro.fleet.FleetVerifier`.  It holds one verdict path and
its reference:

* :class:`DeviceJudge` judges every collection the verifier accepts,
  in a round or through ``FleetVerifier.verify_collection``.  It takes
  the records as one :class:`repro.core.measurement.RecordBatch` and
  turns its columns into three flag lists (MAC authentic, known-good
  digest, dated in the future), one pass over a column each; no
  per-record object is built, and a report's
  :attr:`VerificationReport.verdicts` are made from the batch and the
  flags only when someone reads them;
* :class:`DeviceJudges` keeps each device's judge and decodes a raw
  response before judging it; the in-process verifier and every
  process worker judge through one;
* :meth:`VerificationCore.verify_measurements` is the reference oracle
  the judge is tested against, one :class:`MeasurementVerdict` per
  record, and :meth:`VerificationCore.verify_ondemand` the only judge
  of ERASMUS+OD (paper Fig. 4).

Both paths hand their columns to one assessment
(:meth:`VerificationCore._assess`): schedule, freshness, status and
the report's persisted counters are computed there, once.

:class:`VerificationCore` holds only deployment policy (the config, the
schedule tolerance, the missing-measurement allowance) and the resolved
crypto primitives.  Per-device state — the shared key, the known-good
digests, the newest timestamp already seen — is passed *into* every
call, so a single core instance can verify any number of devices from
any number of threads concurrently.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_right
from dataclasses import dataclass
from operator import sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.arch.base import encode_timestamp
from repro.core.config import ErasmusConfig
from repro.core.measurement import Measurement, RecordBatch
from repro.core.protocol import (
    OnDemandRequest,
    OnDemandResponse,
    ProtocolDecodeError,
    decode_response,
)
from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare
from repro.crypto.mac import get_mac

#: The one encoding of persisted rows: ``encode_row(row)`` is
#: ``json.dumps(row, sort_keys=True)`` without building an encoder per
#: call.
encode_row = json.JSONEncoder(sort_keys=True).encode


class DeviceStatus(enum.Enum):
    """Overall outcome of verifying one collection."""

    HEALTHY = "healthy"
    INFECTED = "infected"
    TAMPERED = "tampered"
    NO_DATA = "no_data"


class DuplicateEnrollmentError(ValueError):
    """A device was enrolled twice without an explicit re-enrollment.

    Silently replacing an enrollment would discard the device's
    last-seen timestamp and whitelisted digests — on a fleet verifier
    that is almost always an operator mistake, so it must be opted into
    with ``re_enroll=True``.
    """


@dataclass(frozen=True)
class MeasurementVerdict:
    """Verdict on a single received measurement."""

    measurement: Measurement
    authentic: bool
    healthy: bool
    from_future: bool = False


class VerificationReport:
    """Outcome of verifying one collection from one prover.

    :attr:`measurement_count`, :attr:`infected_timestamps` and
    :attr:`newest_timestamp` are the persisted counters.  A judged
    report computes them once, when it is judged (or built from
    ``verdicts``); any other report takes them as constructor
    arguments.  That one path rebuilds a report from its persisted row
    (:meth:`from_row`), which is what lets a
    :class:`repro.store.StateStore` replay reports into a
    :class:`repro.fleet.FleetHealth` aggregate after a restart, and
    from a process worker's binary result record
    (:func:`repro.worker.process.decode_result`).  The per-record
    :attr:`verdicts` of a report the :class:`DeviceJudge` made are built
    on first read, from the judged record batch and its flag columns; a
    rebuilt report has none.
    """

    def __init__(self, device_id: str, collection_time: float,
                 status: DeviceStatus,
                 verdicts: Optional[List[MeasurementVerdict]] = None,
                 anomalies: Optional[List[str]] = None,
                 freshness: Optional[float] = None,
                 missing_intervals: int = 0, *,
                 measurement_count: int = 0,
                 infected_timestamps: Optional[List[float]] = None,
                 newest_timestamp: Optional[float] = None) -> None:
        self.device_id = device_id
        self.collection_time = collection_time
        self.status = status
        self.anomalies = [] if anomalies is None else anomalies
        self.freshness = freshness
        self.missing_intervals = missing_intervals
        self._verdicts = [] if verdicts is None else verdicts
        # (records, authentic, healthy, from_future) of a judged batch
        # whose verdicts nobody has read yet.
        self._pending: Optional[tuple] = None
        self._json: Optional[str] = None  # to_json's text, once built
        if verdicts:
            self._summarize(
                [verdict.measurement.timestamp for verdict in verdicts],
                [verdict.authentic for verdict in verdicts],
                [verdict.healthy for verdict in verdicts],
                [verdict.from_future for verdict in verdicts])
        else:
            self.measurement_count = measurement_count
            self.infected_timestamps = [] if infected_timestamps is None \
                else infected_timestamps
            self.newest_timestamp = newest_timestamp

    def _summarize(self, timestamps: List[float], authentic: List[bool],
                   healthy: List[bool], from_future: List[bool]) -> None:
        """Derive the persisted counters from the judged columns.

        ``measurement_count`` is the number of records received;
        ``infected_timestamps`` the authentic records whose state was
        not a known-good one; ``newest_timestamp`` the newest record
        not dated in the future (``None`` if there is none), so a forged
        future-dated record cannot move the device's last-seen mark.
        """
        self.measurement_count = len(timestamps)
        self.infected_timestamps = [] if False not in healthy else [
            timestamp for timestamp, good_mac, known
            in zip(timestamps, authentic, healthy) if good_mac and not known]
        dated = timestamps if True not in from_future else [
            timestamp for timestamp, future in zip(timestamps, from_future)
            if not future]
        self.newest_timestamp = max(dated, default=None)

    @property
    def verdicts(self) -> List[MeasurementVerdict]:
        """Per-measurement verdicts, built on first read for a judged batch."""
        pending = self._pending
        if pending is not None:
            self._verdicts = list(map(MeasurementVerdict, *pending))
            self._pending = None
        return self._verdicts

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.device_id, self.collection_time, self.status,
                self.verdicts, self.anomalies, self.freshness,
                self.missing_intervals) == \
            (other.device_id, other.collection_time, other.status,
             other.verdicts, other.anomalies, other.freshness,
             other.missing_intervals)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        The row is the canonical persisted form: every
        :class:`repro.store.StateStore` journals it, :meth:`from_row`
        reverses it, and its text (:meth:`to_json`) is what
        :class:`repro.fleet.JsonlSink` and the SQLite journal write.
        All keys are plain JSON types.
        """
        return {
            "device_id": self.device_id,
            "collection_time": self.collection_time,
            "status": self.status.value,
            "measurements": self.measurement_count,
            "freshness": self.freshness,
            "missing_intervals": self.missing_intervals,
            "anomalies": list(self.anomalies),
            "infected_timestamps": list(self.infected_timestamps),
            "newest_timestamp": self.newest_timestamp,
        }

    def to_json(self) -> str:
        """The row's canonical text, ``json.dumps(row, sort_keys=True)``.

        Built on first call and kept until :meth:`release_json`: a
        committed report is final, so the SQLite journal and the JSONL
        sink write the same text from one encoding.
        """
        text = self._json
        if text is None:
            text = self._json = encode_row(self.to_row())
        return text

    def release_json(self) -> None:
        """Drop the kept :meth:`to_json` text.

        The verifier calls it once the journal and every sink have the
        report, so the reports a caller holds do not carry their text.
        """
        self._json = None

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "VerificationReport":
        """Rebuild a (verdict-free) report from its persisted row."""
        freshness = row.get("freshness")
        newest = row.get("newest_timestamp")
        return cls(
            device_id=str(row["device_id"]),
            collection_time=float(row["collection_time"]),
            status=DeviceStatus(row["status"]),
            anomalies=[str(item) for item in row.get("anomalies", ())],
            freshness=None if freshness is None else float(freshness),
            missing_intervals=int(row.get("missing_intervals", 0)),
            measurement_count=int(row.get("measurements", 0)),
            infected_timestamps=[
                float(t) for t in row.get("infected_timestamps", ())],
            newest_timestamp=None if newest is None else float(newest))

    def detected_infection(self) -> bool:
        """True when this collection exposed malware presence or tampering."""
        return self.status in (DeviceStatus.INFECTED, DeviceStatus.TAMPERED)

    @property
    def freshness_label(self) -> str:
        """Freshness rendered for humans (``n/a`` for empty collections)."""
        return "n/a" if self.freshness is None else f"{self.freshness:.0f}s"

    def summary(self) -> str:
        """One-line human-readable account of this collection."""
        text = (f"{self.device_id}: {self.status.value}, "
                f"{self.measurement_count} record(s), "
                f"freshness {self.freshness_label}")
        if self.missing_intervals:
            text += f", {self.missing_intervals} missing"
        if self.anomalies:
            text += f" ({'; '.join(self.anomalies)})"
        return text

    def __repr__(self) -> str:
        return (f"VerificationReport(device_id={self.device_id!r}, "
                f"status={self.status.value!r}, "
                f"records={self.measurement_count}, "
                f"anomalies={len(self.anomalies)})")


@dataclass(frozen=True)
class Enrollment:
    """The per-device facts a verification needs: key and healthy states.

    ``last_seen`` is the newest timestamp accepted in an earlier
    collection — records at or before it are treated as redundant
    re-collections rather than schedule gaps (Section 3.1).
    """

    device_id: str
    key: bytes
    healthy_digests: frozenset[bytes]
    last_seen: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("the shared key must be non-empty")

    @classmethod
    def create(cls, device_id: str, key: bytes,
               healthy_digests: Iterable[bytes],
               last_seen: Optional[float] = None) -> "Enrollment":
        """Normalize raw key material into an enrollment record."""
        return cls(device_id=device_id, key=bytes(key),
                   healthy_digests=frozenset(bytes(d)
                                             for d in healthy_digests),
                   last_seen=last_seen)

    def advanced(self, last_seen: float) -> "Enrollment":
        """Copy with an updated newest-seen timestamp."""
        return Enrollment(device_id=self.device_id, key=self.key,
                          healthy_digests=self.healthy_digests,
                          last_seen=last_seen)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        Byte fields are hex-encoded and the digest set is sorted, so
        equal enrollments always serialize to identical rows — the
        property :class:`repro.store.StateStore` snapshots rely on.
        """
        return {
            "device_id": self.device_id,
            "key": self.key.hex(),
            "healthy_digests": sorted(digest.hex()
                                      for digest in self.healthy_digests),
            "last_seen": self.last_seen,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "Enrollment":
        """Rebuild an enrollment from its persisted row."""
        last_seen = row.get("last_seen")
        return cls(
            device_id=str(row["device_id"]),
            key=bytes.fromhex(str(row["key"])),
            healthy_digests=frozenset(
                bytes.fromhex(str(digest))
                for digest in row.get("healthy_digests", ())),
            last_seen=None if last_seen is None else float(last_seen))


def _empty_report(enrollment: Enrollment,
                  collection_time: float) -> VerificationReport:
    """The verdict on a collection that carried no records."""
    return VerificationReport(device_id=enrollment.device_id,
                              collection_time=collection_time,
                              status=DeviceStatus.TAMPERED,
                              anomalies=["prover returned no measurements"])


class VerificationCore:
    """Stateless verification of ERASMUS measurement histories.

    ``allowed_missing`` is the Section 5 policy knob: how many expected
    measurements may be missing from a collection (e.g. legitimately
    aborted because of time-critical tasks) before the verifier treats
    the absence as tampering.  The default of zero is the strict policy.
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0) -> None:
        if not 0 <= schedule_tolerance < 1:
            raise ValueError("schedule tolerance must be in [0, 1)")
        if allowed_missing < 0:
            raise ValueError("allowed_missing must be non-negative")
        self.config = config
        self.schedule_tolerance = schedule_tolerance
        self.allowed_missing = allowed_missing
        self.mac_name = get_mac(config.mac_name).name
        self.crypto_backend = get_backend()

    # ------------------------------------------------------------------
    # Request authentication material
    # ------------------------------------------------------------------
    # statics: ok(dead-public) — ERASMUS+OD verifier half (paper Fig. 4)
    def request_tag(self, key: bytes, request_time: float) -> bytes:
        """``MAC_K(t_req)`` for an authenticated ERASMUS+OD request."""
        return self.crypto_backend.mac(self.mac_name, key,
                                       encode_timestamp(request_time))

    # ------------------------------------------------------------------
    # Per-measurement checks
    # ------------------------------------------------------------------
    def verdict(self, enrollment: Enrollment, measurement: Measurement,
                collection_time: float) -> MeasurementVerdict:
        """Judge one measurement: MAC, known-good digest, plausibility."""
        authentic = constant_time_compare(
            self.crypto_backend.mac(self.mac_name, enrollment.key,
                                    measurement.mac_input()),
            measurement.tag)
        # Whitelist membership over public known-good software states;
        # authenticity is decided by the MAC check above, not by this.
        # statics: ok(constant-time)
        healthy = measurement.digest in enrollment.healthy_digests
        from_future = measurement.timestamp > collection_time + 1e-6
        return MeasurementVerdict(measurement=measurement, authentic=authentic,
                                  healthy=healthy, from_future=from_future)

    def _expected_interval(self) -> float:
        """The schedule spacing gaps are judged against (``U`` if irregular)."""
        if self.config.irregular_upper is not None:
            return self.config.irregular_upper
        return self.config.measurement_interval

    def check_schedule(self, timestamps: List[float],
                       last_seen: Optional[float]) -> tuple[int, List[str]]:
        """Check timestamp spacing against the expected schedule.

        Returns the number of missing measurement intervals and a list of
        anomaly descriptions (duplicates within one response, oversized
        gaps).  Records already seen in an earlier collection are
        ignored for gap purposes — re-collecting them is merely
        redundant (Section 3.1), not an attack.  For irregular schedules
        the upper bound ``U`` plays the role of the expected interval.
        """
        anomalies: List[str] = []
        expected = self._expected_interval()
        allowed_gap = expected * (1 + self.schedule_tolerance)
        ordered = sorted(timestamps)

        # The successive differences, and C-level min/max over them:
        # only a collection holding a duplicate or an oversized gap
        # walks them one by one.  (Timestamps are never NaN: the wire
        # carries integer microseconds.)
        steps = list(map(sub, ordered[1:], ordered))
        if steps and min(steps) <= 1e-9:
            duplicates = sum(1 for step in steps if step <= 1e-9)
            anomalies.append(
                f"{duplicates} duplicate timestamp(s) within one collection")

        gaps = steps
        if last_seen is not None:
            # Records at or before last_seen + 1e-9 were seen before;
            # the first new record's gap is measured from last_seen.
            new = bisect_right(ordered, last_seen + 1e-9)
            gaps = [ordered[new] - last_seen, *steps[new:]] \
                if new < len(ordered) else []
        missing = 0
        if gaps and max(gaps) > allowed_gap:
            for gap in gaps:
                if gap > allowed_gap:
                    skipped = int(gap / expected) - 1
                    missing += max(1, skipped)
        return missing, anomalies

    # ------------------------------------------------------------------
    # Whole-collection verification
    # ------------------------------------------------------------------
    def verify_measurements(self, enrollment: Enrollment,
                            measurements: Sequence[Measurement],
                            collection_time: float) -> VerificationReport:
        """Verify one measurement history against the enrollment facts.

        The reference oracle :class:`DeviceJudge` reports are tested
        against: one :meth:`verdict` per record, kept in the report.  No
        internal state is read or written, so callers own all
        bookkeeping (report history, newest-seen timestamps).
        """
        if not measurements:
            return _empty_report(enrollment, collection_time)
        verdicts = [self.verdict(enrollment, measurement, collection_time)
                    for measurement in measurements]
        report = VerificationReport(device_id=enrollment.device_id,
                                    collection_time=collection_time,
                                    status=DeviceStatus.HEALTHY,
                                    verdicts=verdicts)
        return self._assess(
            report, enrollment, collection_time,
            [verdict.measurement.timestamp for verdict in verdicts],
            [verdict.authentic for verdict in verdicts],
            [verdict.healthy for verdict in verdicts],
            [verdict.from_future for verdict in verdicts])

    def _assess(self, report: VerificationReport, enrollment: Enrollment,
                collection_time: float, timestamps: List[float],
                authentic: List[bool], healthy: List[bool],
                from_future: List[bool]) -> VerificationReport:
        """Judge a non-empty collection from its per-record columns.

        ``timestamps`` and the three flag lists run in record order.
        Shared by the reference path (:meth:`verify_measurements`) and
        the batch path (:class:`DeviceJudge`), so the two can only ever
        differ in how the flags were computed — which the equivalence
        tests pin to "not at all".
        """
        report._summarize(timestamps, authentic, healthy, from_future)
        ordered = sorted(timestamps)
        report.missing_intervals, schedule_anomalies = self.check_schedule(
            ordered, enrollment.last_seen)
        report.anomalies.extend(schedule_anomalies)
        report.freshness = collection_time - ordered[-1]

        # Stale tail: the newest record should not be older than one
        # (tolerated) measurement interval — otherwise the most recent
        # measurements were deleted or silently skipped.
        expected_interval = self._expected_interval()
        allowed_age = expected_interval * (1 + self.schedule_tolerance)
        if report.freshness > allowed_age:
            report.missing_intervals += max(
                1, int(report.freshness / expected_interval) - 1)

        forged = authentic.count(False)
        future = from_future.count(True)
        if forged or future or schedule_anomalies:
            report.status = DeviceStatus.TAMPERED
            if forged:
                report.anomalies.append(
                    f"{forged} measurement(s) failed MAC verification")
            if future:
                report.anomalies.append(
                    f"{future} measurement(s) are timestamped in the future")
        elif report.infected_timestamps:
            report.status = DeviceStatus.INFECTED
        elif report.missing_intervals > self.allowed_missing:
            # Gaps without other anomalies: measurements were deleted or
            # skipped beyond what the deployment policy tolerates.  The
            # paper treats unexplained absence as self-incriminating.
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append(
                f"{report.missing_intervals} expected measurement(s) missing "
                f"(policy allows {self.allowed_missing})")
        return report

    # statics: ok(dead-public) — ERASMUS+OD verifier half (paper Fig. 4)
    def verify_ondemand(self, enrollment: Enrollment,
                        request: OnDemandRequest,
                        response: OnDemandResponse,
                        collection_time: float) -> VerificationReport:
        """Verify an ERASMUS+OD response (Figure 4, verifier side).

        In addition to the history checks, the fresh measurement ``M_0``
        must exist and must have been computed at or after the request
        time (otherwise the prover replayed an old record).
        """
        measurements = list(response.measurements)
        if response.fresh is not None:
            measurements = [response.fresh] + measurements
        report = self.verify_measurements(enrollment, measurements,
                                          collection_time)
        if response.fresh is None:
            report.anomalies.append("prover returned no fresh measurement")
            report.status = DeviceStatus.TAMPERED
        elif response.fresh.timestamp + 1e-6 < request.request_time:
            report.anomalies.append(
                "fresh measurement is older than the request")
            report.status = DeviceStatus.TAMPERED
        return report

    @staticmethod
    def advance_last_seen(report: VerificationReport,
                          last_seen: Optional[float]) -> Optional[float]:
        """The newest-seen timestamp after accepting ``report``."""
        newest = report.newest_timestamp
        return last_seen if newest is None else newest

    def device_judge(self, key: bytes) -> "DeviceJudge":
        """Precompile the per-device fast verification path.

        Binds the MAC construction and the device key into one closure
        on the core's crypto provider, so a collection pipeline
        verifying thousands of measurements under the same key skips
        the per-call name dispatch that :meth:`verdict` pays.  The
        reference path stays as the ground truth; both produce identical
        reports.
        """
        return DeviceJudge(self, key)


class DeviceJudge:
    """Fast verification of one device's collections under a fixed key.

    The policy checks are the shared :meth:`VerificationCore._assess`;
    only the per-record flags over a :class:`RecordBatch` are
    specialized: one pass over a column per flag, a MAC closure over
    a state keyed once per device, the provider-native tag comparison
    and the whitelist's own ``__contains__``.  Judges are
    cheap to build and safe to reuse across rounds as long as the
    device keeps the same key (re-enrollment must discard the judge).
    """

    __slots__ = ("core", "key", "_mac", "_compare")

    def __init__(self, core: VerificationCore, key: bytes) -> None:
        self.core = core
        self.key = key
        backend = core.crypto_backend
        self._mac = backend.mac_function(core.mac_name, key)
        self._compare = backend.compare_digests

    def verify_measurements(self, enrollment: Enrollment,
                            measurements: Sequence[Measurement],
                            collection_time: float) -> VerificationReport:
        """Drop-in fast equivalent of ``core.verify_measurements``.

        Judges the records as one :class:`RecordBatch` (a decoded
        response already is one) in one pass over a column per flag
        list: ``map`` MACs every received MAC input and compares its
        tag, ``map`` checks every digest against the whitelist, and a
        comprehension (CPython's specialized float compare beats a
        ``map`` there) checks every timestamp against the horizon.
        The report's verdicts are built only if read.
        """
        if not measurements:
            return _empty_report(enrollment, collection_time)
        batch = measurements if type(measurements) is RecordBatch \
            else RecordBatch.from_measurements(measurements)
        authentic = list(map(self._compare,
                             map(self._mac, batch.mac_inputs), batch.tags))
        # statics: ok(constant-time) — public whitelist membership
        healthy = list(map(enrollment.healthy_digests.__contains__,
                           batch.digests))
        horizon = collection_time + 1e-6
        from_future = [timestamp > horizon for timestamp in batch.timestamps]
        report = VerificationReport(device_id=enrollment.device_id,
                                    collection_time=collection_time,
                                    status=DeviceStatus.HEALTHY)
        report._pending = (batch, authentic, healthy, from_future)
        return self.core._assess(report, enrollment, collection_time,
                                 batch.timestamps, authentic, healthy,
                                 from_future)


class DeviceJudges:
    """Decode-and-judge over one cached :class:`DeviceJudge` per device.

    The one path from a raw transport payload to a report:
    :class:`repro.fleet.FleetVerifier` keeps one for its inline rounds,
    and each process worker (:mod:`repro.worker.process`) keeps one for
    the payloads shipped to it.  A device's judge is rebuilt when a
    re-enrollment changed its key.
    """

    __slots__ = ("core", "_judges")

    def __init__(self, core: VerificationCore) -> None:
        self.core = core
        self._judges: Dict[str, DeviceJudge] = {}

    def judge(self, enrollment: Enrollment,
              measurements: Sequence[Measurement],
              collection_time: float) -> VerificationReport:
        """Judge one decoded history through the device's judge."""
        judge = self._judges.get(enrollment.device_id)
        if judge is None or not self.core.crypto_backend.compare_digests(
                judge.key, enrollment.key):
            judge = self.core.device_judge(enrollment.key)
            self._judges[enrollment.device_id] = judge
        return judge.verify_measurements(enrollment, measurements,
                                         collection_time)

    def verify_payload(self, enrollment: Enrollment, payload,
                       collection_time: float,
                       decode=decode_response) -> VerificationReport:
        """Judge one raw transport response (``None`` = never answered).

        A missing answer is NO_DATA; an undecodable one, or an
        ERASMUS+OD response to a plain collection, is TAMPERED.
        ``decode`` is the response parser.  The fleet verifier passes
        its own module's ``decode_response``, so a timing wrapper
        installed there (``perfbench/spans.py``) sees every decode.
        """
        device_id = enrollment.device_id
        if payload is None:
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.NO_DATA,
                anomalies=["no response received"])
        try:
            response = decode(payload)
        except ProtocolDecodeError as exc:
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.TAMPERED,
                anomalies=[f"response could not be decoded: {exc}"])
        if isinstance(response, OnDemandResponse):
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.TAMPERED,
                anomalies=["unexpected on-demand response to a plain "
                           "collection"])
        return self.judge(enrollment, response.measurements,
                          collection_time)
