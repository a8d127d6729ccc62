"""Tests for the ERASMUS configuration object."""

import pytest

from repro.core import ErasmusConfig, ScheduleKind


def test_defaults_are_valid():
    config = ErasmusConfig()
    assert config.measurement_interval > 0
    # The paper's buffer-sizing rule: T_C <= n * T_M.
    assert config.collection_interval <= \
        config.buffer_slots * config.measurement_interval


def test_measurements_per_collection_is_ceiling():
    config = ErasmusConfig(measurement_interval=60.0,
                           collection_interval=600.0)
    assert config.measurements_per_collection == 10
    config = ErasmusConfig(measurement_interval=60.0,
                           collection_interval=601.0, buffer_slots=16)
    assert config.measurements_per_collection == 11


def test_irregular_defaults_derived_from_tm():
    config = ErasmusConfig(measurement_interval=60.0,
                           schedule=ScheduleKind.IRREGULAR)
    assert config.irregular_lower == pytest.approx(30.0)
    assert config.irregular_upper == pytest.approx(90.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ErasmusConfig(measurement_interval=0.0)
    with pytest.raises(ValueError):
        ErasmusConfig(collection_interval=-1.0)
    with pytest.raises(ValueError):
        ErasmusConfig(buffer_slots=0)
    with pytest.raises(ValueError):
        ErasmusConfig(lenient_window_factor=0.5)
    with pytest.raises(ValueError):
        ErasmusConfig(schedule=ScheduleKind.IRREGULAR, irregular_lower=50.0,
                      irregular_upper=10.0)


def test_crypto_backend_selection():
    assert ErasmusConfig().crypto_backend is None
    assert ErasmusConfig(crypto_backend="reference").crypto_backend == \
        "reference"
    with pytest.raises(ValueError):
        ErasmusConfig(crypto_backend="not-a-backend")
