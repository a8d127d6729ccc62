"""Cross-cutting property-based tests on the core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.base import encode_timestamp
from repro.core import (
    ErasmusConfig,
    IrregularScheduler,
    Measurement,
    MeasurementStore,
    QoA,
)
from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.floats(min_value=0.5, max_value=1000.0, allow_nan=False),
       st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                min_size=1, max_size=100))
def test_store_never_exceeds_capacity(slots, interval, timestamps):
    """The rolling buffer never holds more than ``n`` measurements."""
    store = MeasurementStore(slots=slots, measurement_interval=interval)
    for timestamp in timestamps:
        store.store(Measurement(timestamp, b"\x01" * 32, b"\x02" * 32))
    assert store.occupancy() <= slots
    assert store.stored_count == len(timestamps)
    assert store.occupancy() + store.overwrites == len(timestamps)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=32),
       st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.binary(min_size=16, max_size=64))
def test_mac_binds_timestamp_and_digest(key, timestamp, digest):
    """Changing the timestamp or digest always invalidates the tag."""
    def mac(data):
        return get_backend().mac("keyed-blake2s", key, data)

    payload = encode_timestamp(timestamp) + digest
    tag = mac(payload)
    assert constant_time_compare(mac(payload), tag)
    tampered_time = encode_timestamp(timestamp + 1.0) + digest
    assert not constant_time_compare(mac(tampered_time), tag)
    tampered_digest = encode_timestamp(timestamp) + \
        bytes(b ^ 0x01 for b in digest)
    assert not constant_time_compare(mac(tampered_digest), tag)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=32),
       st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
       st.floats(min_value=1.0, max_value=3.0, allow_nan=False))
def test_irregular_intervals_always_within_bounds(seed, lower, spread):
    """Every CSPRNG-drawn interval respects the configured [L, U] bounds."""
    upper = lower * spread
    scheduler = IrregularScheduler(seed, lower=lower, upper=upper)
    previous = 0.0
    tolerance = 1e-6 * max(1.0, upper)
    for _ in range(30):
        current = scheduler.next_time(previous)
        assert lower - tolerance <= current - previous <= upper + tolerance
        previous = current


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
       st.floats(min_value=0.1, max_value=1e4, allow_nan=False))
def test_qoa_k_covers_collection_interval(measurement_interval,
                                          collection_interval):
    """k measurements always span at least one collection interval."""
    qoa = QoA(measurement_interval, collection_interval)
    assert qoa.measurements_per_collection * measurement_interval >= \
        collection_interval - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
       st.integers(min_value=1, max_value=1024),
       st.integers(min_value=1, max_value=64))
def test_config_buffer_rule_consistency(measurement_interval, factor, slots):
    """measurements_per_collection is ceil(T_C / T_M) for any buffer."""
    collection_interval = measurement_interval * factor / 8.0
    config = ErasmusConfig(measurement_interval=measurement_interval,
                           collection_interval=collection_interval,
                           buffer_slots=slots)
    assert config.measurements_per_collection == \
        math.ceil(collection_interval / measurement_interval)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
       st.binary(min_size=0, max_size=80), st.binary(min_size=0, max_size=80))
def test_measurement_wire_format_roundtrip(timestamp, digest, tag):
    """Encoding and decoding a record never changes its content."""
    measurement = Measurement(timestamp=timestamp, digest=digest, tag=tag)
    decoded = Measurement.decode(measurement.encode())
    assert decoded.digest == digest
    assert decoded.tag == tag
    assert abs(decoded.timestamp - timestamp) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.binary(min_size=0, max_size=64),
       st.binary(min_size=0, max_size=64))
def test_measurement_wire_roundtrip_is_lossless(timestamp, digest, tag):
    """Encoding then decoding a record preserves every transmitted field."""
    from repro.core import Measurement
    original = Measurement(timestamp=timestamp, digest=digest, tag=tag)
    decoded = Measurement.decode(original.encode())
    assert decoded.digest == digest
    assert decoded.tag == tag
    assert abs(decoded.timestamp - timestamp) <= 1e-6
    assert decoded.size_bytes == original.size_bytes


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    st.binary(min_size=1, max_size=48),
    st.binary(min_size=1, max_size=48)), max_size=10))
def test_collect_response_preserves_order_and_bytes(records):
    """The response codec is a faithful, order-preserving container."""
    from repro.core import CollectResponse, Measurement
    measurements = [Measurement(timestamp=t, digest=d, tag=g)
                    for t, d, g in records]
    decoded = CollectResponse.decode(
        CollectResponse(measurements=measurements).encode())
    assert [(m.digest, m.tag) for m in decoded.measurements] == \
        [(m.digest, m.tag) for m in measurements]
