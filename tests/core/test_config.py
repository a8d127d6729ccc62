"""Tests for the ERASMUS configuration object."""

import dataclasses

import pytest

from repro.core import ErasmusConfig, ScheduleKind
from repro.core.verification import VerificationCore
from repro.crypto.backend import get_backend, use_backend


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
    """The provider is the process's choice, resolved when an object is built."""
    fields = {field.name for field in dataclasses.fields(ErasmusConfig)}
    assert "crypto_backend" not in fields
    with use_backend("reference"):
        core = VerificationCore(ErasmusConfig())
    assert core.crypto_backend is get_backend("reference")
    assert VerificationCore(ErasmusConfig()).crypto_backend is get_backend()
