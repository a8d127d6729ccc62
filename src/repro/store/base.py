"""The durable-verifier-state contract: a snapshot plus one journal.

For a long-lived unattended deployment the verifier's record of each
device — enrollment key, healthy digests, newest-seen timestamp — *is*
the security state: lose it and a rebooted verifier cannot be told
apart from a rolled-back one.  A :class:`StateStore` is the seam that
makes that state durable without the verifier caring how.  Every
backend keeps the same two things on a different medium: a canonical
snapshot and one ordered journal of ``enrollment`` and ``report``
records.

* :meth:`StateStore.save_enrollment` — journal an enrollment or a
  re-enrollment (new device, new key or digest whitelist);
* :meth:`StateStore.append_report` — journal one finished
  :class:`~repro.core.verification.VerificationReport` row.  The row
  carries the report's newest timestamp, so it is also the durable
  record of the ``last_seen`` advance it caused;
* :meth:`StateStore.checkpoint` — fold the verifier's enrollments,
  :class:`FleetHealth` aggregate and last collection times into one
  canonical snapshot that records its journal position;
* :meth:`StateStore.restore_state` — parse the snapshot, then replay
  the journal records after its position, in order, through
  :func:`replay_record` into a :class:`RestoredState`, from which
  :meth:`repro.fleet.FleetVerifier.restore` resumes a deployment.

What is durable when: outside a :meth:`StateStore.batch`, a record is
durable (on the backend's medium) when its call returns.  Inside one,
the batch's records become durable together when the outermost batch
exits, whether it exits normally or by an exception.  The verifier
commits each shard batch of a round — its report rows, nothing else —
as one such unit, and hands a report to its sinks only after that
unit's exit has returned.  A round ends with one checkpoint.

The snapshot document is canonical: enrollments in the verifier's
enrollment order, digest sets sorted, collection times sorted by
device id, JSON emitted with sorted keys.  Checkpointing the same
ordered state therefore always produces the same bytes
(:meth:`StateStore.state_bytes`), which is what the kill-and-restore
tests assert.
"""

from __future__ import annotations

import abc
import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.core.verification import Enrollment, VerificationReport
from repro.worker.health import FleetHealth

#: Version tag written into every snapshot document.
SNAPSHOT_VERSION = 1

#: The two journal record kinds.
ENROLLMENT = "enrollment"
REPORT = "report"

Row = Dict[str, object]


class StoreError(RuntimeError):
    """A state store could not read or write its backing medium."""


@dataclass
class RestoredState:
    """Everything a verifier needs to resume a deployment."""

    enrollments: Dict[str, Enrollment] = field(default_factory=dict)
    health: FleetHealth = field(default_factory=FleetHealth)
    last_collection_times: Dict[str, float] = field(default_factory=dict)
    rounds_completed: int = 0
    replayed_reports: int = 0


def snapshot_document(enrollments: Mapping[str, Enrollment],
                      health: Any,
                      last_collection_times: Mapping[str, float],
                      rounds_completed: int,
                      journal_seq: int) -> Row:
    """Build the canonical snapshot document for one checkpoint."""
    return {
        "version": SNAPSHOT_VERSION,
        "journal_seq": journal_seq,
        "rounds_completed": rounds_completed,
        "enrollments": [enrollment.to_row()
                        for enrollment in enrollments.values()],
        "health": None if health is None else health.to_row(),
        "last_collection_times": dict(sorted(
            last_collection_times.items())),
    }


def encode_snapshot(document: Row) -> bytes:
    """Serialize a snapshot document to its canonical bytes."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def state_from_snapshot(document: Optional[Mapping[str, object]]
                        ) -> Tuple[RestoredState, int]:
    """Parse a snapshot document; returns the state and its journal seq."""
    state = RestoredState()
    if document is None:
        return state, 0
    version = int(document.get("version", 0))
    if version != SNAPSHOT_VERSION:
        raise StoreError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {SNAPSHOT_VERSION}); refusing to misparse verifier "
            f"state")
    for row in document.get("enrollments", ()):
        enrollment = Enrollment.from_row(row)
        state.enrollments[enrollment.device_id] = enrollment
    health_row = document.get("health")
    if health_row is not None:
        state.health = FleetHealth.from_row(health_row)
    state.last_collection_times = {
        str(device_id): float(value) for device_id, value
        in dict(document.get("last_collection_times", {})).items()}
    state.rounds_completed = int(document.get("rounds_completed", 0))
    return state, int(document.get("journal_seq", 0))


def replay_record(state: RestoredState, kind: str,
                  row: Mapping[str, object]) -> None:
    """Fold one journal record into a restored state, in journal order.

    Mirrors what the live verifier did when it wrote the record:

    * an ``enrollment`` record installs the enrollment; one without a
      ``last_seen`` (a first enrollment or a deliberate re-enrollment
      reset) also drops the device's collection time, which belonged
      to the unit it replaced;
    * a ``report`` record folds into the health aggregate and, when it
      carried measurements, sets the device's collection time and
      advances its ``last_seen`` — the report row is the durable
      record of that advance.
    """
    if kind == ENROLLMENT:
        enrollment = Enrollment.from_row(row)
        state.enrollments[enrollment.device_id] = enrollment
        if enrollment.last_seen is None:
            state.last_collection_times.pop(enrollment.device_id, None)
    elif kind == REPORT:
        report = VerificationReport.from_row(row)
        state.health.record(report)
        if report.measurement_count:
            state.last_collection_times[report.device_id] = \
                report.collection_time
            newest = report.newest_timestamp
            enrollment = state.enrollments.get(report.device_id)
            if newest is not None and enrollment is not None:
                state.enrollments[report.device_id] = \
                    enrollment.advanced(newest)
        state.replayed_reports += 1
    else:
        raise StoreError(f"unknown journal record kind {kind!r}")


class StateStore(abc.ABC):
    """Durable backing for a verifier's per-device and aggregate state."""

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def save_enrollment(self, enrollment: Enrollment) -> None:
        """Journal one enrollment record (key, digests, last-seen)."""

    @abc.abstractmethod
    def append_report(self, report: VerificationReport) -> None:
        """Journal one finished verification report."""

    @abc.abstractmethod
    def checkpoint(self, enrollments: Mapping[str, Enrollment],
                   health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        """Fold the caller's state into one durable snapshot.

        The snapshot covers every record journaled so far; restore
        replays only the records after it.
        """

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group the writes made inside into one durable unit.

        The writes become durable together when the outermost batch
        exits — normally or by an exception, so writes made before a
        failing one still land.  If that final commit fails, none of
        the batch's writes is durable and the error propagates.
        Batches nest; inner exits commit nothing.  This default makes
        every write durable as it is made, which is already what a
        batch promises.
        """
        yield

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def has_enrollment(self, device_id: str) -> bool:
        """True when the backing medium holds an enrollment for the device.

        Consulted by duplicate-enrollment guards: a freshly constructed
        verifier attached to a non-empty durable store must not let a
        careless re-provision silently overwrite persisted enrollments
        (and with them the rollback-detecting ``last_seen`` state).
        Every backend answers from memory, without reading its medium.
        """

    @abc.abstractmethod
    def restore_state(self) -> RestoredState:
        """Snapshot plus journal tail, replayed into a resumable state."""

    @abc.abstractmethod
    def state_rows(self) -> Optional[Row]:
        """The last checkpoint's snapshot document (``None`` before one)."""

    def state_bytes(self) -> bytes:
        """Canonical bytes of the last checkpoint (empty before one)."""
        document = self.state_rows()
        return b"" if document is None else encode_snapshot(document)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and release any resources (default: nothing to do)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
