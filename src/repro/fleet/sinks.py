"""Report sinks: where a fleet collection streams its verification output.

A 1,000-device round produces 1,000 :class:`VerificationReport`s;
rather than returning a list and letting every experiment hand-format
it, the :class:`repro.fleet.FleetVerifier` streams each finished report
to any number of sinks:

* :class:`MemorySink` — keep reports in a list (tests, small fleets);
* :class:`JsonlSink` — append one JSON object per report to a file, the
  shape log-pipeline ingestion expects.

The verifier itself folds every committed report into its running
:class:`FleetHealth` aggregate.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Dict, Iterable, List, Mapping, Optional, Set, Union

from repro.core.verification import DeviceStatus, VerificationReport


@dataclass
class RoundStats:
    """Operational counters for one collection round.

    Where :class:`FleetHealth` aggregates *verification outcomes*,
    round stats capture the *collection mechanics*: how many requests
    went out, how many answers never came back, how many stale
    responses from earlier (timed-out) rounds the transport had to
    discard, and how long the round took in wall-clock terms.  Returned
    by ``collect_all`` (on the report list's ``stats`` attribute) and
    handed to ``Observability.round_finished``; the verifier keeps no
    history of them.  Wall-clock figures are machine-dependent, so they
    are deliberately kept out of the persisted health row (and out of
    campaign artifact rows and span traces, which must be
    byte-reproducible).

    ``wall_start`` / ``wall_end`` are one *monotonic* clock pair
    (``time.perf_counter``) bracketing the round, stamped by the
    verifier that ran it, so overlapping rounds can be ordered and
    intersected after the fact.  Monotonic stamps are only comparable
    within one process — they order and measure, they do not date;
    :attr:`wall_seconds` is derived from them.
    """

    requests_sent: int = 0
    responses_received: int = 0
    responses_lost: int = 0
    stale_responses_rejected: int = 0
    shards: int = 0
    wall_start: float = 0.0
    wall_end: float = 0.0

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration of the round."""
        return self.wall_end - self.wall_start

    @property
    def devices_per_second(self) -> float:
        """Collection throughput of this round (0 when instantaneous)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests_sent / self.wall_seconds

    def summary(self) -> str:
        """One-line human-readable account of the round."""
        return (f"round: {self.requests_sent} request(s), "
                f"{self.responses_received} response(s), "
                f"{self.responses_lost} lost, "
                f"{self.stale_responses_rejected} stale rejected, "
                f"{self.shards} shard(s), {self.wall_seconds:.3f}s "
                f"({self.devices_per_second:.0f} devices/s)")


class ReportSink(abc.ABC):
    """Consumer of per-device verification reports."""

    #: Set by close() implementations that release resources; a failed
    #: collection round prunes closed sinks from its verifier.
    closed = False

    @abc.abstractmethod
    def emit(self, report: VerificationReport) -> None:
        """Accept one finished report."""

    def flush(self) -> None:
        """Push buffered reports to the backing medium (default: no-op)."""

    def close(self) -> None:
        """Flush and release any resources (default: nothing to do)."""

    def __enter__(self) -> "ReportSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SinkFanout:
    """Lifecycle guard for the sinks a collection round streams into.

    Used as a context manager around one round: on a clean exit every
    sink is flushed, so a finished round is always fully on disk; if
    the round body raises (a transport failing mid-round, say) the
    sinks are *closed* instead, so the reports verified before the
    failure still reach their files rather than dying in buffers when
    the exception unwinds the process.
    """

    def __init__(self, sinks: Iterable["ReportSink"]) -> None:
        self.sinks: List[ReportSink] = list(sinks)
        self.closed = False

    def flush(self) -> None:
        """Flush every still-open sink; first failure raises after all.

        Sinks that were already closed (a failed earlier round, a
        shared sink closed by another owner) are skipped — flushing a
        released stream would raise and could double-flush buffers.
        One sink failing to flush must not strand the reports buffered
        in the sinks behind it, so every sink gets its flush before the
        first error propagates — the same semantics :meth:`close` has
        always had.
        """
        first_error: Optional[Exception] = None
        for sink in self.sinks:
            if not sink.closed:
                try:
                    sink.flush()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
        if first_error is not None:
            raise first_error

    def close(self) -> None:
        """Close every sink; the first failure propagates after all run.

        Idempotent: a second close (an exception handler unwinding past
        a fanout that already closed itself, ``Fleet.close`` after a
        failed round) is a no-op rather than a double-close.
        """
        if self.closed:
            return
        self.closed = True
        first_error: Optional[Exception] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "SinkFanout":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is not None:
            # A close failure here means buffered reports were lost —
            # worse than the round's own error, so it must not be
            # silent; the round's exception stays chained as
            # __context__ of the close error.
            self.close()
            return False
        self.flush()
        return False


# statics: ok(dead-public) — test seam: the in-memory sink tests read
class MemorySink(ReportSink):
    """Retain every report in order of arrival."""

    def __init__(self) -> None:
        self.reports: List[VerificationReport] = []

    def emit(self, report: VerificationReport) -> None:
        self.reports.append(report)


# perfbench writes its reports through this sink and times its emit.
# statics: ok(dead-public) — read by perfbench, outside the scanned roots
class JsonlSink(ReportSink):
    """Append one JSON line per report to a file or file-like object.

    ``flush_every`` bounds data loss on long rounds: the stream is
    flushed to the OS after every ``flush_every`` reports (``None``
    keeps the historical flush-on-close-only behaviour).
    """

    def __init__(self, target: Union[str, IO[str]],
                 flush_every: Optional[int] = None) -> None:
        if flush_every is not None and flush_every <= 0:
            raise ValueError("flush_every must be positive")
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.flush_every = flush_every
        self.lines_written = 0
        self.closed = False

    def emit(self, report: VerificationReport) -> None:
        if self.closed:
            raise ValueError(
                "JsonlSink is closed (a failed collection round closes "
                "its sinks); attach a fresh sink before collecting again")
        # json.dumps takes the C encoder; json.dump's pure-Python
        # iterencode left cyclic garbage behind on every report.
        self._stream.write(json.dumps(report.to_row(),
                                      sort_keys=True) + "\n")
        self.lines_written += 1
        if self.flush_every is not None and \
                self.lines_written % self.flush_every == 0:
            self._stream.flush()

    def flush(self) -> None:
        if not self.closed:
            self._stream.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


@dataclass
class FleetHealth:
    """Aggregate health of a fleet across one or more collection rounds."""

    reports_total: int = 0
    measurements_verified: int = 0
    status_counts: Dict[str, int] = field(
        default_factory=lambda: {status.value: 0 for status in DeviceStatus})
    devices_seen: Set[str] = field(default_factory=set)
    flagged_devices: Set[str] = field(default_factory=set)
    missing_intervals_total: int = 0
    # Freshness accumulates as an exact rational so that summation is
    # associative: merging a process worker's aggregate part then reads
    # back the *same* value (bit for bit) as recording every report
    # into one aggregate, which the worker byte-identity tests rely on.
    # Plain float addition would make the checkpoint differ in the last
    # ulp depending on how reports were split across workers.
    _freshness_sum: Fraction = Fraction(0)
    _freshness_count: int = 0

    def record(self, report: VerificationReport) -> None:
        """Fold one report into the aggregate."""
        self.reports_total += 1
        self.measurements_verified += report.measurement_count
        self.status_counts[report.status.value] += 1
        self.devices_seen.add(report.device_id)
        if report.detected_infection():
            self.flagged_devices.add(report.device_id)
        self.missing_intervals_total += report.missing_intervals
        if report.freshness is not None:
            self._freshness_sum += Fraction(report.freshness)
            self._freshness_count += 1

    def merge(self, other: "FleetHealth") -> None:
        """Fold another aggregate into this one (process worker parts)."""
        self.reports_total += other.reports_total
        self.measurements_verified += other.measurements_verified
        for status, count in other.status_counts.items():
            self.status_counts[status] = \
                self.status_counts.get(status, 0) + count
        self.devices_seen |= other.devices_seen
        self.flagged_devices |= other.flagged_devices
        self.missing_intervals_total += other.missing_intervals_total
        self._freshness_sum += other._freshness_sum
        self._freshness_count += other._freshness_count

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def devices_total(self) -> int:
        """Number of distinct devices that produced at least one report."""
        return len(self.devices_seen)

    @property
    def healthy_fraction(self) -> float:
        """Fraction of reports that verified fully healthy."""
        if not self.reports_total:
            return 0.0
        return self.status_counts[DeviceStatus.HEALTHY.value] / \
            self.reports_total

    @property
    def mean_freshness(self) -> Optional[float]:
        """Mean freshness over reports that carried measurements."""
        if not self._freshness_count:
            return None
        return float(Fraction(self._freshness_sum) / self._freshness_count)

    def count(self, status: DeviceStatus) -> int:
        """Number of reports with the given status."""
        return self.status_counts[status.value]

    # ------------------------------------------------------------------
    # Persistence codec
    # ------------------------------------------------------------------
    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        Sets are emitted sorted so equal aggregates always serialize to
        identical rows — the property :class:`repro.store.StateStore`
        checkpoints rely on.
        """
        return {
            "reports_total": self.reports_total,
            "measurements_verified": self.measurements_verified,
            "status_counts": dict(sorted(self.status_counts.items())),
            "devices_seen": sorted(self.devices_seen),
            "flagged_devices": sorted(self.flagged_devices),
            "missing_intervals_total": self.missing_intervals_total,
            "freshness_sum": self._encode_freshness_sum(),
            "freshness_count": self._freshness_count,
        }

    def _encode_freshness_sum(self):
        """The exact accumulator in its canonical JSON form.

        A plain JSON float whenever the exact sum is representable as
        one (every historical snapshot is, so re-checkpointing restored
        state stays byte-identical); otherwise an exact
        ``[numerator, denominator]`` pair, so the row round-trips
        losslessly and merged aggregates serialize identically to
        single-pass ones.
        """
        exact = Fraction(self._freshness_sum)
        as_float = float(exact)
        if Fraction(as_float) == exact:
            return as_float
        return [exact.numerator, exact.denominator]

    @staticmethod
    def _decode_freshness_sum(value) -> Fraction:
        """Reverse :meth:`_encode_freshness_sum` (old float rows too)."""
        if isinstance(value, (list, tuple)):
            numerator, denominator = value
            return Fraction(int(numerator), int(denominator))
        return Fraction(float(value))

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "FleetHealth":
        """Rebuild an aggregate from its persisted row."""
        counts = {status.value: 0 for status in DeviceStatus}
        counts.update({str(status): int(count) for status, count
                       in dict(row.get("status_counts", {})).items()})
        return cls(
            reports_total=int(row.get("reports_total", 0)),
            measurements_verified=int(row.get("measurements_verified", 0)),
            status_counts=counts,
            devices_seen=set(row.get("devices_seen", ())),
            flagged_devices=set(row.get("flagged_devices", ())),
            missing_intervals_total=int(
                row.get("missing_intervals_total", 0)),
            _freshness_sum=cls._decode_freshness_sum(
                row.get("freshness_sum", 0.0)),
            _freshness_count=int(row.get("freshness_count", 0)))

    def summary(self) -> str:
        """Multi-line, human-readable fleet-health digest."""
        freshness = "n/a" if self.mean_freshness is None \
            else f"{self.mean_freshness:.1f}s"
        lines = [
            f"fleet health: {self.devices_total} device(s), "
            f"{self.reports_total} report(s), "
            f"{self.measurements_verified} measurement(s) verified",
            "  status: " + ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.status_counts.items())
                if count),
            f"  healthy fraction: {self.healthy_fraction:.1%}, "
            f"mean freshness: {freshness}, "
            f"missing intervals: {self.missing_intervals_total}",
        ]
        if self.flagged_devices:
            flagged = ", ".join(sorted(self.flagged_devices)[:8])
            if len(self.flagged_devices) > 8:
                flagged += ", ..."
            lines.append(f"  flagged devices: {flagged}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"FleetHealth(devices={self.devices_total}, "
                f"reports={self.reports_total}, "
                f"healthy_fraction={self.healthy_fraction:.3f}, "
                f"flagged={len(self.flagged_devices)})")
