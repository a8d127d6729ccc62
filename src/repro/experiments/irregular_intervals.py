"""Section 3.5 — irregular measurement intervals vs schedule-aware malware.

A mobile adversary that knows the fixed ``T_M`` can enter right after a
measurement and leave just before the next one, evading detection with
certainty as long as its dwell time stays below ``T_M``.  Randomizing
the interval with a key-seeded CSPRNG (bounded to ``[L, U]``) removes
that certainty: the adversary now evades only when its dwell happens to
fit inside the (secret) next interval.

This harness sweeps the dwell time and reports evasion probabilities
under both schedules.  Expected shape: the regular schedule gives 100 %
evasion for any dwell below ``T_M`` and 0 % above; the irregular
schedule decays smoothly from 100 % at ``dwell <= L`` to 0 % at
``dwell >= U``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.adversary.roving import ScheduleAwareMalware
from repro.analysis.sweep import ParameterSweep
from repro.core.scheduler import IrregularScheduler, RegularScheduler

DEFAULT_DWELL_FRACTIONS: Sequence[float] = (0.4, 0.6, 0.8, 0.95, 1.1, 1.4, 1.6)


def run(measurement_interval: float = 60.0,
        dwell_fractions: Sequence[float] = DEFAULT_DWELL_FRACTIONS,
        lower_fraction: float = 0.5, upper_fraction: float = 1.5,
        trials: int = 2000, key: bytes = b"\x42" * 16,
        seed: int = 11, max_workers: Optional[int] = None
        ) -> List[Dict[str, object]]:
    """Sweep the adversary dwell time against both schedules.

    Each dwell fraction is evaluated independently (fresh schedulers
    seeded from the same key), so the sweep can run on a thread pool
    via ``max_workers`` without changing any row.
    """
    lower = lower_fraction * measurement_interval
    upper = upper_fraction * measurement_interval

    def evaluate(fraction: float) -> Dict[str, object]:
        dwell = fraction * measurement_interval
        malware = ScheduleAwareMalware(dwell=dwell, seed=seed)
        regular_result = malware.simulate(
            RegularScheduler(measurement_interval), trials=trials)
        irregular_result = malware.simulate(
            IrregularScheduler(key, lower=lower, upper=upper),
            trials=trials)
        return {
            "dwell_over_tm": fraction,
            "regular_evasion": regular_result.evasion_probability,
            "irregular_evasion": irregular_result.evasion_probability,
            "analytic_irregular_evasion": _analytic_evasion(
                dwell, lower, upper),
        }

    sweep = ParameterSweep({"fraction": list(dwell_fractions)})
    sweep.run(evaluate, max_workers=max_workers)
    return list(sweep.outcomes())


def _analytic_evasion(dwell: float, lower: float, upper: float) -> float:
    """P(next interval >= dwell) for a uniform interval on [lower, upper]."""
    if dwell <= lower:
        return 1.0
    if dwell >= upper:
        return 0.0
    return (upper - dwell) / (upper - lower)


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the evasion sweep as a text table."""
    lines = ["Section 3.5: schedule-aware malware evasion probability"]
    lines.append(f"{'dwell/T_M':>10}{'regular':>10}{'irregular':>12}"
                 f"{'analytic':>10}")
    for row in rows:
        lines.append(f"{row['dwell_over_tm']:>10.2f}"
                     f"{row['regular_evasion']:>10.2f}"
                     f"{row['irregular_evasion']:>12.2f}"
                     f"{row['analytic_irregular_evasion']:>10.2f}")
    return "\n".join(lines)


def main() -> None:
    """Print the evasion sweep."""
    print(format_table(run()))


if __name__ == "__main__":
    main()
