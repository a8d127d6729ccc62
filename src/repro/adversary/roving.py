"""Schedule-aware mobile malware (the Section 3.5 adversary).

If measurements fire at a fixed, known ``T_M``, mobile malware can enter
right after one measurement and leave right before the next, staying on
the device for almost ``T_M`` while never being measured.  Irregular,
CSPRNG-driven intervals take that knowledge away: the best the malware
can do is gamble that its dwell window happens to avoid the (secret)
next measurement time.

:class:`ScheduleAwareMalware` quantifies this: it simulates visits that
start immediately after an observed measurement and computes the
probability of evading detection, for any scheduler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.scheduler import MeasurementScheduler


@dataclass
class EvasionResult:
    """Outcome of an evasion simulation."""

    trials: int
    evasions: int

    @property
    def evasion_probability(self) -> float:
        """Fraction of visits that avoided every measurement."""
        return self.evasions / self.trials if self.trials else 0.0

    @property
    def detection_probability(self) -> float:
        """Complement of the evasion probability."""
        return 1.0 - self.evasion_probability


class ScheduleAwareMalware:
    """Mobile malware that knows the scheduling *policy* (but not the key).

    Its strategy: wait for a measurement to complete (observable, e.g.
    through a busy CPU), immediately infect, stay for ``dwell`` seconds,
    then leave.  Against a regular schedule with ``dwell < T_M`` this
    always evades; against an irregular schedule the next measurement
    time is unpredictable and evasion becomes a gamble.
    """

    def __init__(self, dwell: float, seed: int = 0) -> None:
        if dwell <= 0:
            raise ValueError("dwell time must be positive")
        self.dwell = dwell
        self._random = random.Random(seed)

    def _evades(self, entry_time: float, next_measurement: float) -> bool:
        """The evasion predicate: the visit ends before the next fire."""
        return next_measurement >= entry_time + self.dwell

    def evades_once(self, scheduler: MeasurementScheduler,
                    entry_time: float) -> bool:
        """Does one visit starting at ``entry_time`` avoid all measurements?

        ``entry_time`` is assumed to be the instant right after a
        measurement completed, which is the adversary's optimal entry
        point under any schedule.
        """
        return self._evades(entry_time, scheduler.next_time(entry_time))

    def simulate(self, scheduler: MeasurementScheduler,
                 trials: int = 1000) -> EvasionResult:
        """Estimate the evasion probability over many independent visits.

        Schedulers that expose a batched ``intervals(n)`` draw (the
        irregular CSPRNG scheduler) are sampled in one batch.  The
        batched draw is stream-identical to repeated ``next_interval``
        calls and ``next_time`` is ``entry + interval`` for such
        schedulers, so the result matches the trial-by-trial path bit
        for bit; a scheduler whose ``next_time`` deviates from that
        identity must not expose ``intervals``.
        """
        if trials <= 0:
            raise ValueError("at least one trial is required")
        entry_times = [self._random.uniform(0, 10_000.0)
                       for _ in range(trials)]
        draw_batch = getattr(scheduler, "intervals", None)
        if callable(draw_batch):
            evasions = sum(
                1 for entry_time, interval in zip(entry_times,
                                                  draw_batch(trials))
                if self._evades(entry_time, entry_time + interval))
        else:
            evasions = sum(1 for entry_time in entry_times
                           if self.evades_once(scheduler, entry_time))
        return EvasionResult(trials=trials, evasions=evasions)
