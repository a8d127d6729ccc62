"""Tests for the architecture-independent measurement logic."""

import hashlib

import pytest

from repro.arch.base import (
    ArchitectureError,
    MeasurementAborted,
    encode_timestamp,
    hash_for_mac,
)
from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare
from repro.crypto.sha256 import sha256_digest


def _tag(key, data):
    return get_backend().mac("keyed-blake2s", key, data)


def test_hash_for_mac_pairs():
    assert hash_for_mac("hmac-sha256")(b"x") == sha256_digest(b"x")
    assert hash_for_mac("keyed-blake2s")(b"x") == \
        hashlib.blake2s(b"x").digest()
    with pytest.raises(ValueError):
        hash_for_mac("siphash")


def test_encode_timestamp_is_canonical_and_monotonic():
    assert encode_timestamp(1.0) == encode_timestamp(1.0)
    assert len(encode_timestamp(123.456)) == 8
    assert encode_timestamp(2.0) > encode_timestamp(1.0)
    # Sub-microsecond differences collapse (fixed-point encoding).
    assert encode_timestamp(1.0000001) == encode_timestamp(1.0)


def test_measurement_output_fields(smartplus_arch):
    smartplus_arch.advance_clock(42.0)
    output = smartplus_arch.perform_measurement()
    assert output.timestamp == pytest.approx(42.0)
    assert len(output.digest) == 32
    assert len(output.tag) == 32
    assert output.duration > 0
    assert output.memory_bytes == 512


def test_measurement_tag_verifies_under_shared_key(key, smartplus_arch):
    smartplus_arch.advance_clock(10.0)
    output = smartplus_arch.perform_measurement()
    payload = encode_timestamp(output.timestamp) + output.digest
    assert constant_time_compare(_tag(key, payload), output.tag)


def test_measurement_digest_tracks_memory_content(smartplus_arch,
                                                  malware_image):
    smartplus_arch.advance_clock(1.0)
    clean = smartplus_arch.perform_measurement()
    smartplus_arch.load_application(malware_image)
    smartplus_arch.advance_clock(2.0)
    infected = smartplus_arch.perform_measurement()
    assert clean.digest != infected.digest


def test_aborted_measurement_raises_and_counts(smartplus_arch):
    with pytest.raises(MeasurementAborted):
        smartplus_arch.perform_measurement(abort=True)
    assert smartplus_arch.aborted_measurements == 1
    assert smartplus_arch.measurements_performed == 0


def test_request_authentication_accepts_valid_request(key, smartplus_arch):
    smartplus_arch.advance_clock(100.0)
    tag = _tag(key, encode_timestamp(99.0))
    assert smartplus_arch.authenticate_request(b"", tag, 99.0)


def test_request_authentication_rejects_bad_mac(smartplus_arch):
    smartplus_arch.advance_clock(100.0)
    assert not smartplus_arch.authenticate_request(b"", b"\x00" * 32, 99.0)


def test_request_authentication_rejects_replay(key, smartplus_arch):
    smartplus_arch.advance_clock(100.0)
    tag = _tag(key, encode_timestamp(99.0))
    assert smartplus_arch.authenticate_request(b"", tag, 99.0)
    assert not smartplus_arch.authenticate_request(b"", tag, 99.0)


def test_request_authentication_rejects_stale_request(key, smartplus_arch):
    smartplus_arch.advance_clock(1000.0)
    tag = _tag(key, encode_timestamp(10.0))
    assert not smartplus_arch.authenticate_request(b"", tag, 10.0,
                                                   freshness_window=60.0)


def test_key_unreachable_outside_protected_execution(smartplus_arch):
    with pytest.raises(ArchitectureError):
        smartplus_arch._read_key()


# ----------------------------------------------------------------------
# The atomic guard, on both architectures
# ----------------------------------------------------------------------
@pytest.fixture(params=["smartplus", "hydra"])
def architecture(request):
    return request.getfixturevalue(f"{request.param}_arch")


def test_guard_released_after_abort(architecture):
    with pytest.raises(MeasurementAborted):
        architecture.perform_measurement(abort=True)
    with pytest.raises(ArchitectureError):
        architecture._read_key()
    architecture.advance_clock(1.0)
    assert architecture.perform_measurement().timestamp == pytest.approx(1.0)
    assert architecture.measurements_performed == 1
    with pytest.raises(ArchitectureError):
        architecture._read_key()


def test_guard_released_when_hash_raises(architecture, monkeypatch):
    def failing_hash(data):
        raise RuntimeError("hash fault")

    monkeypatch.setattr(architecture, "hash_function", failing_hash)
    with pytest.raises(RuntimeError, match="hash fault"):
        architecture.perform_measurement()
    with pytest.raises(ArchitectureError):
        architecture._read_key()
    monkeypatch.undo()
    architecture.advance_clock(2.0)
    assert architecture.perform_measurement().timestamp == pytest.approx(2.0)
    assert architecture.measurements_performed == 1


def test_nested_protected_entry_rejected(key, architecture):
    with architecture._protected_execution():
        with pytest.raises(ArchitectureError, match="nested"):
            with architecture._protected_execution():
                pass
        with pytest.raises(ArchitectureError, match="nested"):
            architecture.perform_measurement()
        # The failed inner entry leaves the outer one in force.
        assert architecture._read_key() == key
    with pytest.raises(ArchitectureError):
        architecture._read_key()
    assert architecture.measurements_performed == 0


def test_duration_is_the_modelled_runtime(architecture):
    output = architecture.perform_measurement()
    assert output.duration == architecture.cost_model.measurement_runtime(
        architecture.measured_memory_bytes(), architecture.mac_name)
    assert output.memory_bytes == architecture.measured_memory_bytes() == \
        len(architecture.read_measured_memory())
