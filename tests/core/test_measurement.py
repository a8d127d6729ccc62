"""Tests for the measurement record and its wire encoding."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.base import encode_timestamp
from repro.core import Measurement, MeasurementDecodeError


def make(timestamp=12.5, digest=b"\xAB" * 32, tag=b"\xCD" * 32):
    return Measurement(timestamp=timestamp, digest=digest, tag=tag,
                       duration=0.7)


def test_encode_decode_roundtrip():
    original = make()
    decoded = Measurement.decode(original.encode())
    assert decoded.timestamp == pytest.approx(original.timestamp)
    assert decoded.digest == original.digest
    assert decoded.tag == original.tag


def test_size_bytes_matches_encoding():
    measurement = make()
    assert measurement.size_bytes == len(measurement.encode())


def test_authenticated_payload_binds_time_and_digest():
    measurement = make()
    assert measurement.authenticated_payload() == \
        encode_timestamp(12.5) + b"\xAB" * 32
    shifted = dataclasses.replace(measurement, timestamp=13.0)
    assert shifted.authenticated_payload() != \
        measurement.authenticated_payload()
    assert shifted.tag == measurement.tag  # tags cannot be re-forged


def test_decode_rejects_truncated_record():
    encoded = make().encode()
    with pytest.raises(MeasurementDecodeError):
        Measurement.decode(encoded[:5])
    with pytest.raises(MeasurementDecodeError):
        Measurement.decode(encoded[:-3])


def test_decode_rejects_trailing_garbage():
    with pytest.raises(MeasurementDecodeError):
        Measurement.decode(make().encode() + b"extra")


def test_from_output_copies_fields(smartplus_arch):
    smartplus_arch.advance_clock(3.0)
    output = smartplus_arch.perform_measurement()
    measurement = Measurement.from_output(output)
    assert measurement.timestamp == output.timestamp
    assert measurement.digest == output.digest
    assert measurement.tag == output.tag
    assert measurement.duration == output.duration
    # Built without the generated __init__, yet equal, hashing and
    # frozen like a directly constructed record.
    direct = Measurement(timestamp=output.timestamp, digest=output.digest,
                         tag=output.tag, duration=output.duration)
    assert measurement == direct
    assert hash(measurement) == hash(direct)
    assert measurement.mac_input() == direct.authenticated_payload()
    with pytest.raises(dataclasses.FrozenInstanceError):
        measurement.tag = b"forged"
    with pytest.raises(AttributeError):
        output.tag = b"forged"


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0, max_value=1e9, allow_nan=False),
       st.binary(min_size=1, max_size=64),
       st.binary(min_size=1, max_size=64))
def test_roundtrip_property(timestamp, digest, tag):
    measurement = Measurement(timestamp=timestamp, digest=digest, tag=tag)
    decoded = Measurement.decode(measurement.encode())
    assert decoded.digest == digest
    assert decoded.tag == tag
    assert abs(decoded.timestamp - timestamp) <= 1e-6
