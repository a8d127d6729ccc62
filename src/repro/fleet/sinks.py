"""Report sinks: where a fleet collection streams its verification output.

A 1,000-device round produces 1,000 :class:`VerificationReport`s;
rather than returning a list and letting every experiment hand-format
it, the :class:`repro.fleet.FleetVerifier` streams each finished report
to any number of sinks:

* :class:`MemorySink` — keep reports in a list (tests, small fleets);
* :class:`JsonlSink` — append one JSON object per report to a file, the
  shape log-pipeline ingestion expects.

The verifier itself folds every committed report into its running
:class:`FleetHealth` aggregate (:mod:`repro.worker.health`, re-exported
here and from :mod:`repro.fleet`).
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Union

from repro.core.verification import VerificationReport
from repro.worker import health as _health

#: The aggregate's home is :mod:`repro.worker.health`, which process
#: workers import without this package; re-exported here for callers
#: that take it from the sinks module.
FleetHealth = _health.FleetHealth


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
