"""Tests for schedule-aware malware (Section 3.5 adversary)."""

import pytest

from repro.adversary.roving import EvasionResult, ScheduleAwareMalware
from repro.core.scheduler import IrregularScheduler, RegularScheduler


def test_short_dwell_always_evades_regular_schedule():
    malware = ScheduleAwareMalware(dwell=50.0, seed=1)
    result = malware.simulate(RegularScheduler(60.0), trials=500)
    assert result.evasion_probability == 1.0
    assert result.detection_probability == 0.0


def test_long_dwell_never_evades_regular_schedule():
    malware = ScheduleAwareMalware(dwell=70.0, seed=1)
    result = malware.simulate(RegularScheduler(60.0), trials=500)
    assert result.evasion_probability == 0.0


def test_irregular_schedule_breaks_certainty():
    malware = ScheduleAwareMalware(dwell=55.0, seed=2)
    irregular = IrregularScheduler(b"key", lower=30.0, upper=90.0)
    result = malware.simulate(irregular, trials=1500)
    # Analytically P(evade) = (90 - 55) / 60 ≈ 0.58.
    assert 0.45 < result.evasion_probability < 0.70


def test_dwell_below_lower_bound_still_evades_irregular():
    malware = ScheduleAwareMalware(dwell=25.0, seed=3)
    irregular = IrregularScheduler(b"key", lower=30.0, upper=90.0)
    assert malware.simulate(irregular, trials=300).evasion_probability == 1.0


def test_evasion_result_properties():
    result = EvasionResult(trials=10, evasions=4)
    assert result.evasion_probability == pytest.approx(0.4)
    assert result.detection_probability == pytest.approx(0.6)
    assert EvasionResult(trials=0, evasions=0).evasion_probability == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        ScheduleAwareMalware(dwell=0.0)
    with pytest.raises(ValueError):
        ScheduleAwareMalware(dwell=1.0).simulate(RegularScheduler(10.0),
                                                 trials=0)
