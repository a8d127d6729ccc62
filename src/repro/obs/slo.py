"""Streaming SLO evaluation: health verdicts *while* a round runs.

The fleet's :class:`~repro.fleet.sinks.FleetHealth` is an aggregate
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
  :class:`~repro.fleet.sinks.FleetHealth` aggregate.

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
from repro.fleet.sinks import FleetHealth, ReportSink


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

    def violated_by(self, health: FleetHealth) -> bool:
        expected = self.expected_devices if self.expected_devices \
            is not None else health.reports_total
        attested = health.reports_total - \
            health.count(DeviceStatus.NO_DATA)
        return self._verdict(attested, expected) is not None


class FreshnessRule(SloRule):
    """Mean measurement freshness must stay within ``max_mean_seconds``.

    Freshness is the age of a collection's measurements at verify time
    (the paper's QoA axis); this rule bounds the fleet-wide mean.  The
    streaming accumulator uses exact rationals, mirroring
    :class:`FleetHealth`'s, so the end-of-round verdict is *identical*
    to the one recomputed from a merged post-hoc aggregate — not just
    close.
    """

    def __init__(self, max_mean_seconds: float) -> None:
        if max_mean_seconds <= 0:
            raise ValueError("max_mean_seconds must be positive")
        self.max_mean_seconds = max_mean_seconds
        # Via str(): the user wrote the decimal "0.1", not the binary
        # float nearest it — Fraction(0.1) is a hair *above* 0.1, so a
        # fleet whose exact mean lands on the threshold would misjudge.
        self._max_mean = Fraction(str(max_mean_seconds))
        self._sum = Fraction(0)
        self._count = 0

    name = "freshness"

    @property
    def threshold(self) -> float:
        return self.max_mean_seconds

    def reset(self) -> None:
        self._sum = Fraction(0)
        self._count = 0

    def observe(self, report: VerificationReport) -> Optional[tuple]:
        if report.freshness is not None:
            self._sum += Fraction(report.freshness)
            self._count += 1
        return None  # a late fresh report can still pull the mean back

    def _verdict(self, total: Fraction, count: int) -> Optional[tuple]:
        if count and total / count > self._max_mean:
            mean = float(total / count)
            return (mean,
                    f"mean freshness {mean:.1f}s exceeds "
                    f"{self.max_mean_seconds:.1f}s")
        return None

    def end_of_round(self) -> Optional[tuple]:
        return self._verdict(self._sum, self._count)

    def violated_by(self, health: FleetHealth) -> bool:
        return self._verdict(health._freshness_sum,
                             health._freshness_count) is not None


class AttestationWindowRule(SloRule):
    """``min_fraction`` of the fleet must attest within ``window``
    virtual seconds of the round's first report.

    The paper's time-to-detection argument in SLO form: the clock is
    the *engine's*, so on the simulated network the window measures
    genuine protocol latency (multi-hop relays, retries, partitions),
    deterministically.  Streaming-only by nature — a finished
    :class:`FleetHealth` no longer knows *when* each report landed —
    so :meth:`violated_by` replays the verdict the stream settled on.
    """

    def __init__(self, min_fraction: float, window: float,
                 expected_devices: int,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if not 0.0 < min_fraction <= 1.0:
            raise ValueError("min_fraction must be within (0, 1]")
        if window <= 0:
            raise ValueError("window must be positive")
        if expected_devices <= 0:
            raise ValueError("expected_devices must be positive")
        self.min_fraction = min_fraction
        # Exact decimal threshold: 0.07 * 100 is 7.000000000000001 as
        # floats, so exactly 7 of 100 attested would falsely violate.
        self._min_fraction_exact = Fraction(str(min_fraction))
        self.window = window
        self.expected_devices = expected_devices
        self._clock = clock
        self._round_start: Optional[float] = None
        self._attested_in_window = 0
        self._violated: Optional[tuple] = None

    name = "attestation_window"

    @property
    def threshold(self) -> float:
        return self.min_fraction

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock (done by the sink when bound)."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def reset(self) -> None:
        self._round_start = None
        self._attested_in_window = 0
        self._violated = None

    def _short_of_target(self) -> bool:
        """Exact ``attested/expected < min_fraction`` — no float target."""
        return (Fraction(self._attested_in_window, self.expected_devices)
                < self._min_fraction_exact)

    def observe(self, report: VerificationReport) -> Optional[tuple]:
        now = self._now()
        if self._round_start is None:
            self._round_start = now
        in_window = now - self._round_start <= self.window
        if report.status is not DeviceStatus.NO_DATA and in_window:
            self._attested_in_window += 1
        if self._violated is not None:
            return None  # already fired this round
        if not in_window and self._short_of_target():
            fraction = self._attested_in_window / self.expected_devices
            self._violated = (
                fraction,
                f"only {self._attested_in_window}/"
                f"{self.expected_devices} device(s) attested within "
                f"{self.window:.1f}s (target {self.min_fraction:.1%})")
            return self._violated
        return None

    def end_of_round(self) -> Optional[tuple]:
        if self._violated is not None:
            return None  # already streamed; do not double-fire
        if self._round_start is None:
            return None
        if self._short_of_target():
            fraction = self._attested_in_window / self.expected_devices
            return (fraction,
                    f"only {self._attested_in_window}/"
                    f"{self.expected_devices} device(s) attested within "
                    f"{self.window:.1f}s (target {self.min_fraction:.1%})")
        return None

    def violated_by(self, health: FleetHealth) -> bool:
        del health  # timing is gone from a post-hoc aggregate
        return self._violated is not None


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
            if clock is not None and hasattr(rule, "bind_clock"):
                rule.bind_clock(clock)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock events are stamped with."""
        self._clock = clock
        for rule in self.rules:
            if hasattr(rule, "bind_clock"):
                rule.bind_clock(clock)

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
    def violations_for_round(self, round_index: int
                             ) -> List[SloViolation]:
        """All violations recorded for one round."""
        return [violation for violation in self.violations
                if violation.round_index == round_index]

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
