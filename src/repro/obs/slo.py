"""Streaming SLO evaluation: health verdicts *while* a round runs.

The fleet's :class:`~repro.fleet.FleetHealth` is an aggregate
computed as reports commit and examined after the round returns.  For
a live deployment that is too late: "95% of the fleet must attest" is
an SLO you want to hear about the moment it becomes unmeetable, not at
the post-mortem.  :class:`StreamingHealthSink` is an ordinary
:class:`~repro.fleet.sinks.ReportSink` — it plugs into the same fanout
every other sink uses — that evaluates a set of :class:`SloRule`\\ s on
every streamed report and fires :class:`SloViolation` events
*mid-round*, as soon as a rule's verdict is decided.

Rules have two evaluation paths that must agree:

* **streaming** — :meth:`SloRule.observe` per report, then
  :meth:`SloRule.end_of_round` when the round's sink flush arrives;
* **post-hoc** — :meth:`SloRule.violated_by` over a finished
  :class:`~repro.fleet.FleetHealth` aggregate.

The agreement is load-bearing: process workers' health parts are
merged into the verifier's aggregate after the fact, and the
hypothesis suite asserts that the streaming verdict at end-of-round
equals the verdict recomputed from the merged post-hoc health —
whatever the report stream looked like.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.verification import DeviceStatus, VerificationReport
from repro.fleet.sinks import ReportSink
from repro.worker.health import FleetHealth


@dataclass
class SloViolation:
    """One fired SLO event: which rule, when, and how badly.

    ``reports_seen`` is the number of reports the sink had streamed
    *this round* when the rule fired — strictly less than the fleet
    size proves the event fired mid-round, before the collection
    returned, even when the sink has already streamed earlier rounds.
    """

    rule: str
    round_index: int
    message: str
    value: float
    threshold: float
    reports_seen: int
    #: Virtual (engine) time at firing; 0.0 without a bound clock.
    time: float = 0.0
    #: False for violations only discovered by the end-of-round sweep.
    streamed: bool = True

    def summary(self) -> str:
        when = "mid-round" if self.streamed else "end of round"
        return (f"SLO {self.rule} violated ({when}, round "
                f"{self.round_index}): {self.message}")


class SloRule(abc.ABC):
    """One health objective, evaluable both streaming and post-hoc.

    Subclasses keep per-round streaming state; :meth:`reset` wipes it
    between rounds.  :meth:`observe` may return a ``(value, message)``
    pair the moment the round's verdict becomes irrevocably *violated*
    — that is what makes the sink's events fire before the round
    returns — while :meth:`end_of_round` settles the verdict for rules
    that need the full round.  :meth:`violated_by` recomputes the same
    verdict from a finished :class:`FleetHealth`.
    """

    #: Stable rule name (used as the metrics label and event tag).
    name = "slo"

    @abc.abstractmethod
    def reset(self) -> None:
        """Wipe per-round streaming state."""

    @abc.abstractmethod
    def observe(self, report: VerificationReport
                ) -> Optional[tuple]:
        """Fold one streamed report in; a ``(value, message)`` pair the
        moment the round is irrevocably violated, else ``None``."""

    @abc.abstractmethod
    def end_of_round(self) -> Optional[tuple]:
        """Settle the round's verdict; ``(value, message)`` if violated."""

    @abc.abstractmethod
    # statics: ok(dead-public) — post-hoc oracle for the streaming verdict
    def violated_by(self, health: FleetHealth) -> bool:
        """The same verdict, recomputed from a post-hoc aggregate."""

    @property
    @abc.abstractmethod
    def threshold(self) -> float:
        """The configured bound (for event rendering)."""


class LostBudgetRule(SloRule):
    """At most ``max_lost`` devices may fail to answer in one round.

    A device that never answers surfaces as a ``NO_DATA`` report, so
    the streaming count crosses the budget the moment the
    ``max_lost + 1``-th silent device commits — typically while most of
    the round is still in flight, which is exactly when an operator
    wants to hear about a partition.
    """

    def __init__(self, max_lost: int) -> None:
        if max_lost < 0:
            raise ValueError("max_lost must be non-negative")
        self.max_lost = max_lost
        self._lost = 0

    name = "lost_budget"

    @property
    def threshold(self) -> float:
        return float(self.max_lost)

    def reset(self) -> None:
        self._lost = 0

    def observe(self, report: VerificationReport) -> Optional[tuple]:
        if report.status is not DeviceStatus.NO_DATA:
            return None
        self._lost += 1
        if self._lost == self.max_lost + 1:
            return (float(self._lost),
                    f"{self._lost} device(s) unreachable this round "
                    f"(budget {self.max_lost})")
        return None

    def end_of_round(self) -> Optional[tuple]:
        if self._lost > self.max_lost:
            return (float(self._lost),
                    f"{self._lost} device(s) unreachable this round "
                    f"(budget {self.max_lost})")
        return None

    # statics: ok(dead-public) — post-hoc oracle for the streaming verdict
    def violated_by(self, health: FleetHealth) -> bool:
        return health.count(DeviceStatus.NO_DATA) > self.max_lost


class CoverageRule(SloRule):
    """At least ``min_fraction`` of the fleet must attest in the round.

    "Attest" means the device produced *any* verifiable response
    (``status != NO_DATA``).  With ``expected_devices`` configured the
    rule fires mid-round the instant the target becomes unachievable —
    once more than ``(1 - min_fraction) * expected`` devices are
    silent, no later report can save the round.  Without an
    expectation it settles at end-of-round against the reports
    actually streamed.
    """

    def __init__(self, min_fraction: float,
                 expected_devices: Optional[int] = None) -> None:
        if not 0.0 < min_fraction <= 1.0:
            raise ValueError("min_fraction must be within (0, 1]")
        if expected_devices is not None and expected_devices <= 0:
            raise ValueError("expected_devices must be positive")
        self.min_fraction = min_fraction
        # The target as the exact rational the caller *wrote*: parsing
        # the shortest decimal repr makes 0.9 mean 9/10, not the float
        # 0.90000000000000002..., so a round attesting exactly 9 of 10
        # devices meets the target instead of missing it by one ulp.
        self._target = Fraction(str(min_fraction))
        self.expected_devices = expected_devices
        self._seen = 0
        self._missing = 0

    name = "coverage"

    @property
    def threshold(self) -> float:
        return self.min_fraction

    def reset(self) -> None:
        self._seen = 0
        self._missing = 0

    def _verdict(self, attested: int, expected: int) -> Optional[tuple]:
        # Exact arithmetic: attested / expected < target without float
        # division, so the streaming and post-hoc paths can never
        # disagree in the last ulp.
        if expected and Fraction(attested, expected) < self._target:
            return (attested / expected,
                    f"only {attested}/{expected} device(s) attested "
                    f"(target {self.min_fraction:.1%})")
        return None

    def observe(self, report: VerificationReport) -> Optional[tuple]:
        self._seen += 1
        if report.status is DeviceStatus.NO_DATA:
            self._missing += 1
        expected = self.expected_devices
        if expected is None:
            return None
        # Fire as soon as even a perfect remainder cannot reach the
        # target: every not-yet-seen device counted as attested.
        best_possible = expected - self._missing
        if self._missing and self._verdict(best_possible, expected):
            attested = self._seen - self._missing
            return (best_possible / expected,
                    f"coverage target {self.min_fraction:.1%} is already "
                    f"unreachable: {self._missing} of {expected} "
                    f"device(s) silent ({attested} attested so far)")
        return None

    def end_of_round(self) -> Optional[tuple]:
        expected = self.expected_devices if self.expected_devices \
            is not None else self._seen
        return self._verdict(self._seen - self._missing, expected)

    # statics: ok(dead-public) — post-hoc oracle for the streaming verdict
    def violated_by(self, health: FleetHealth) -> bool:
        expected = self.expected_devices if self.expected_devices \
            is not None else health.reports_total
        attested = health.reports_total - \
            health.count(DeviceStatus.NO_DATA)
        return self._verdict(attested, expected) is not None


class StreamingHealthSink(ReportSink):
    """A report sink that turns SLO rules into live events.

    Plugs into the verifier's ordinary sink fanout: every committed
    report is offered to every rule, and the moment a rule decides the
    round is violated the sink records an :class:`SloViolation` and
    invokes each ``on_violation`` callback — synchronously, inside the
    round, which is what "fires before the round returns" means.  The
    round boundary is the sink's ``flush()`` (the fanout flushes on
    clean round exit): outstanding verdicts are settled, per-round rule
    state resets, and the round index advances.

    A rule that already fired mid-round is not re-fired by the
    end-of-round sweep; one violation event per rule per round.
    """

    def __init__(self, rules: Iterable[SloRule],
                 on_violation: Sequence[Callable[[SloViolation], None]]
                 = (),
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.rules: List[SloRule] = list(rules)
        self.on_violation: List[Callable[[SloViolation], None]] = \
            list(on_violation)
        self._clock = clock
        self.round_index = 1
        self.reports_seen = 0
        self._round_reports = 0
        self._fired_this_round: set = set()
        self.violations: List[SloViolation] = []
        for rule in self.rules:
            rule.reset()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock events are stamped with."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _fire(self, rule: SloRule, verdict: tuple,
              streamed: bool) -> None:
        value, message = verdict
        violation = SloViolation(
            rule=rule.name, round_index=self.round_index,
            message=message, value=float(value),
            threshold=rule.threshold, reports_seen=self._round_reports,
            time=self._now(), streamed=streamed)
        self.violations.append(violation)
        self._fired_this_round.add(rule.name)
        for callback in self.on_violation:
            callback(violation)

    # ------------------------------------------------------------------
    # ReportSink contract
    # ------------------------------------------------------------------
    def emit(self, report: VerificationReport) -> None:
        self.reports_seen += 1
        self._round_reports += 1
        for rule in self.rules:
            verdict = rule.observe(report)
            if verdict is not None and \
                    rule.name not in self._fired_this_round:
                self._fire(rule, verdict, streamed=True)

    def flush(self) -> None:
        """End-of-round: settle verdicts, reset rules, advance rounds."""
        if not self._round_reports:
            return  # idle flush (no round content) is not a boundary
        for rule in self.rules:
            if rule.name not in self._fired_this_round:
                verdict = rule.end_of_round()
                if verdict is not None:
                    self._fire(rule, verdict, streamed=False)
        for rule in self.rules:
            rule.reset()
        self._fired_this_round = set()
        self._round_reports = 0
        self.round_index += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def violation_rows(self) -> List[dict]:
        """JSON-friendly rows for the ``/slo`` endpoint."""
        return [{
            "rule": violation.rule,
            "round": violation.round_index,
            "message": violation.message,
            "value": violation.value,
            "threshold": violation.threshold,
            "reports_seen": violation.reports_seen,
            "time": violation.time,
            "streamed": violation.streamed,
        } for violation in self.violations]
