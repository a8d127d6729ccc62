"""Section 5 — availability for time-sensitive applications.

A measurement can take seconds on a low-end device (7 s at 10 KB /
8 MHz), during which the application is unavailable.  The paper
discusses two mitigations: scheduling awareness and aborting/lenient
rescheduling with a window of ``w * T_M``.

This harness simulates a prover running periodic time-critical tasks
(each with a deadline) alongside ERASMUS self-measurements and reports:

* the fraction of critical tasks whose window collides with a
  measurement (strict scheduling);
* the fraction of measurements lost vs rescheduled when the prover
  aborts measurements that collide, for several window factors ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.scheduler import LenientScheduler, RegularScheduler

DEFAULT_WINDOW_FACTORS: Sequence[float] = (1.0, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class CriticalTask:
    """A periodic time-critical task: busy windows the prover must honour."""

    period: float
    busy_time: float

    def windows(self, horizon: float) -> List[tuple[float, float]]:
        """All busy windows up to ``horizon``."""
        result = []
        start = 0.0
        while start < horizon:
            result.append((start, start + self.busy_time))
            start += self.period
        return result


def run(measurement_interval: float = 60.0,
        measurement_runtime: float = 7.0,
        task_period: float = 45.0,
        task_busy_time: float = 10.0,
        window_factors: Sequence[float] = DEFAULT_WINDOW_FACTORS,
        horizon: float = 24 * 3600.0) -> List[Dict[str, object]]:
    """Simulate strict vs lenient scheduling alongside a critical task.

    Returns one row per window factor ``w`` with collision, loss and
    recovery statistics (``w = 1.0`` is effectively strict scheduling:
    an aborted measurement cannot be retried within its own window).
    """
    task = CriticalTask(period=task_period, busy_time=task_busy_time)
    rows: List[Dict[str, object]] = []
    for window_factor in window_factors:
        scheduler = LenientScheduler(measurement_interval, window_factor) \
            if window_factor > 1.0 else RegularScheduler(measurement_interval)
        taken = 0
        aborted = 0
        recovered = 0
        lost = 0
        collisions = 0
        time = 0.0
        while True:
            window_start = time
            time = scheduler.next_time(time)
            if time > horizon:
                break
            if not _collides(time, measurement_runtime, task):
                taken += 1
                continue
            collisions += 1
            aborted += 1
            retry = scheduler.reschedule_after_abort(time, window_start)
            if retry is not None and retry <= horizon and \
                    not _collides(retry, measurement_runtime, task):
                recovered += 1
                taken += 1
            else:
                lost += 1
        scheduled = taken + lost
        rows.append({
            "window_factor": window_factor,
            "measurements_scheduled": scheduled,
            "measurements_taken": taken,
            "collisions": collisions,
            "aborted": aborted,
            "recovered": recovered,
            "lost": lost,
            "loss_rate": lost / scheduled if scheduled else 0.0,
            "task_interference_rate": collisions / scheduled if scheduled
            else 0.0,
        })
    return rows


def _collides(measurement_start: float, measurement_runtime: float,
              task: CriticalTask) -> bool:
    """Does a measurement starting now overlap a critical-task window?"""
    # A collision happens when a task instance starts (or is running)
    # anywhere inside the measurement's execution window.
    window_end = measurement_start + measurement_runtime
    first_task_start = (measurement_start // task.period) * task.period
    task_start = first_task_start
    while task_start < window_end:
        task_end = task_start + task.busy_time
        if task_start < window_end and measurement_start < task_end:
            return True
        task_start += task.period
    return False


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the availability sweep as a text table."""
    lines = ["Section 5: measurement loss under strict vs lenient scheduling"]
    lines.append(f"{'w':>6}{'scheduled':>11}{'taken':>8}{'aborted':>9}"
                 f"{'recovered':>11}{'lost':>7}{'loss rate':>11}")
    for row in rows:
        lines.append(f"{row['window_factor']:>6.1f}"
                     f"{row['measurements_scheduled']:>11}"
                     f"{row['measurements_taken']:>8}"
                     f"{row['aborted']:>9}{row['recovered']:>11}"
                     f"{row['lost']:>7}{row['loss_rate']:>11.3f}")
    return "\n".join(lines)


def main() -> None:
    """Print the availability sweep."""
    print(format_table(run()))


if __name__ == "__main__":
    main()
