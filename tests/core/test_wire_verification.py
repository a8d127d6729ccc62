"""Verification on the received bytes: tamper-after-decode, u64 timestamps,
decode-error parity of the response decoder, and its columnar pass
against the record-by-record walk."""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.base import encode_timestamp
from repro.core import (
    CollectResponse,
    DeviceStatus,
    ErasmusConfig,
    Measurement,
    MeasurementDecodeError,
)
from repro.core import measurement as measurement_module
from repro.core.measurement import _decode_each, decode_records
from repro.core.protocol import ProtocolDecodeError
from repro.core.verification import Enrollment, VerificationCore

KEY = b"wire-verification-key"
DIGEST = b"\x5a" * 32
CONFIG = ErasmusConfig(measurement_interval=10.0, collection_interval=60.0,
                       buffer_slots=8, mac_name="keyed-blake2s")
CORE = VerificationCore(CONFIG)


def mac(data: bytes) -> bytes:
    return CORE.crypto_backend.mac(CONFIG.mac_name, KEY, data)


ENROLLMENT = Enrollment.create("dev-wire", KEY, [DIGEST])
COLLECTION_TIME = 60.0
TIMES = (60.0, 50.0, 40.0, 30.0, 20.0, 10.0)

#: Every message the response decoder may raise for a malformed record
#: list (reports quote them, so their wording is part of the contract).
RECORD_ERRORS = (
    "truncated measurement list",
    "truncated measurement record",
    "measurement record truncated",
    "measurement record has ",
    "trailing bytes after measurement list",
)


def signed(timestamp: float, digest: bytes = DIGEST) -> Measurement:
    tag = mac(encode_timestamp(timestamp) + digest)
    return Measurement(timestamp=timestamp, digest=digest, tag=tag)


def wire() -> bytes:
    return CollectResponse(measurements=[signed(t) for t in TIMES]).encode()


def decoded(payload: bytes = None):
    return list(CollectResponse.decode(
        wire() if payload is None else payload).measurements)


def both_paths(measurements, collection_time=COLLECTION_TIME):
    reference = CORE.verify_measurements(ENROLLMENT, measurements,
                                         collection_time)
    fast = CORE.device_judge(KEY).verify_measurements(
        ENROLLMENT, measurements, collection_time)
    return reference, fast


def assert_tampered(measurements, index):
    for report in both_paths(measurements):
        assert report.status is DeviceStatus.TAMPERED
        assert not report.verdicts[index].authentic
        assert "1 measurement(s) failed MAC verification" in report.anomalies


def test_untouched_decoded_records_are_healthy_on_both_paths():
    for report in both_paths(decoded()):
        assert report.status is DeviceStatus.HEALTHY
        assert all(verdict.authentic for verdict in report.verdicts)


def test_decoded_fields_are_bytes_and_mac_input_is_the_received_span():
    payload = wire()
    for index, record in enumerate(decoded(payload)):
        assert type(record.digest) is bytes and type(record.tag) is bytes
        # Response header (3), then 78-byte records: length prefix (2),
        # timestamp (8), digest and tag lengths (4), digest, tag.
        start = 3 + index * 78 + 2
        assert record.mac_input() == payload[start:start + 8] + record.digest
        assert record.mac_input() == record.authenticated_payload()
        assert record == signed(TIMES[index])
        assert hash(record) == hash(signed(TIMES[index]))
    assert decoded(memoryview(payload)) == decoded(payload)


def test_decoded_records_and_fast_verdicts_stay_frozen_values():
    record = decoded()[0]
    reference, fast = both_paths(decoded())
    for frozen, field in ((record, "timestamp"), (record, "_received"),
                          (fast.verdicts[0], "authentic")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, field, None)
    assert fast.verdicts == reference.verdicts
    assert [hash(v) for v in fast.verdicts] == \
        [hash(v) for v in reference.verdicts]
    assert repr(record) == repr(signed(TIMES[0]))


@pytest.mark.parametrize("index", [0, 3])
def test_retimestamped_record_fails_mac(index):
    measurements = decoded()
    measurements[index] = dataclasses.replace(
        measurements[index], timestamp=measurements[index].timestamp + 0.5)
    assert_tampered(measurements, index)


@pytest.mark.parametrize("change", [
    {"timestamp": TIMES[2] + 0.5},
    {"digest": b"\xa5" * 32},
])
def test_replaced_record_fails_mac(change):
    measurements = decoded()
    measurements[2] = dataclasses.replace(measurements[2], **change)
    assert_tampered(measurements, 2)


def test_directly_constructed_copy_with_new_timestamp_fails_mac():
    measurements = decoded()
    original = measurements[1]
    measurements[1] = Measurement(timestamp=original.timestamp + 1.0,
                                  digest=original.digest, tag=original.tag)
    assert_tampered(measurements, 1)


@pytest.mark.parametrize("bit", range(0, 64, 7))
def test_flipped_timestamp_bit_on_the_wire_fails_mac(bit):
    payload = bytearray(wire())
    # Response header (3) + first record's length prefix (2), then the
    # record's 8 big-endian timestamp bytes.
    offset = 3 + 2 + 7 - bit // 8
    payload[offset] ^= 1 << (bit % 8)
    measurements = decoded(bytes(payload))
    assert measurements[0].timestamp != TIMES[0]
    assert_tampered(measurements, 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                min_size=1, max_size=6),
       st.sampled_from([DIGEST, b"\x11" * 32]),
       st.floats(min_value=0.0, max_value=2.0e13, allow_nan=False))
def test_both_paths_agree_over_the_full_u64_timestamp_range(
        timestamps_us, digest, collection_time):
    parts = [struct.pack(">BH", 2, len(timestamps_us))]
    for timestamp_us in timestamps_us:
        header = struct.pack(">Q", timestamp_us)
        tag = mac(header + digest)
        body = header + struct.pack(">HH", len(digest), len(tag)) + \
            digest + tag
        parts.append(struct.pack(">H", len(body)) + body)
    measurements = decoded(b"".join(parts))
    reference, fast = both_paths(measurements, collection_time)
    assert all(verdict.authentic for verdict in reference.verdicts)
    assert reference.verdicts == fast.verdicts
    assert reference.to_row() == fast.to_row()


# ----------------------------------------------------------------------
# Decode-error parity
# ----------------------------------------------------------------------

def reference_record_list_error(payload: bytes):
    """A record-by-record reference walk of a collect response: the
    error message the decoder must raise, or ``None`` if it decodes."""
    (count,) = struct.unpack_from(">H", payload, 1)
    offset = 3
    for _ in range(count):
        if offset + 2 > len(payload):
            return "truncated measurement list"
        (length,) = struct.unpack_from(">H", payload, offset)
        offset += 2
        if offset + length > len(payload):
            return "truncated measurement record"
        record = payload[offset:offset + length]
        offset += length
        if len(record) < 12:
            return "measurement record truncated"
        _, digest_len, tag_len = struct.unpack_from(">QHH", record)
        if len(record) != 12 + digest_len + tag_len:
            return (f"measurement record has {len(record)} bytes, "
                    f"expected {12 + digest_len + tag_len}")
    if offset != len(payload):
        return "trailing bytes after measurement list"
    return None


def decode_error(payload: bytes) -> str:
    with pytest.raises(ProtocolDecodeError) as caught:
        CollectResponse.decode(payload)
    return str(caught.value)


def test_every_truncation_raises_the_reference_message():
    payload = wire()
    for cut in range(3, len(payload)):
        message = decode_error(payload[:cut])
        assert message == reference_record_list_error(payload[:cut]), cut
        assert message.startswith(RECORD_ERRORS), cut
    for cut in range(1, 3):
        assert decode_error(payload[:cut]) == "malformed collect response"


def test_trailing_bytes_raise_the_reference_message():
    payload = wire()
    for extra in (b"\x00", b"\x00\x0c", b"\xff" * 13, payload[3:]):
        assert decode_error(payload + extra) == \
            "trailing bytes after measurement list"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupted_length_fields_raise_the_reference_message(data):
    payload = bytearray(wire())
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        # Record i starts at 3 + i * 78: length prefix (2), timestamp
        # (8), digest length (2), tag length (2).
        record = data.draw(st.integers(min_value=0, max_value=len(TIMES) - 1))
        field = data.draw(st.sampled_from([0, 10, 12]))
        value = data.draw(st.integers(min_value=0, max_value=0xFFFF))
        struct.pack_into(">H", payload, 3 + record * 78 + field, value)
    payload = bytes(payload[:data.draw(st.integers(min_value=3,
                                                   max_value=len(payload)))])
    expected = reference_record_list_error(payload)
    if expected is None:
        assert len(CollectResponse.decode(payload).measurements) == \
            struct.unpack_from(">H", payload, 1)[0]
    else:
        assert decode_error(payload) == expected


def test_single_record_decode_keeps_its_messages():
    encoded = signed(10.0).encode()
    with pytest.raises(MeasurementDecodeError,
                       match="^measurement record truncated$"):
        Measurement.decode(encoded[:11])
    with pytest.raises(MeasurementDecodeError,
                       match=f"^measurement record has {len(encoded) - 1} "
                             f"bytes, expected {len(encoded)}$"):
        Measurement.decode(encoded[:-1])


# ----------------------------------------------------------------------
# Decode twins: the columnar pass against the record-by-record walk
# ----------------------------------------------------------------------

#: Digest and tag lengths the corpora draw from.
FIELD_LENGTHS = (0, 20, 32, 64)


def prefixed_record(rng, digest_len: int, tag_len: int) -> bytes:
    body = struct.pack(">QHH", rng.getrandbits(64), digest_len, tag_len) \
        + rng.randbytes(digest_len) + rng.randbytes(tag_len)
    return struct.pack(">H", len(body)) + body


def record_list(rng, count: int, mixed: bool = False):
    """``(payload, count)``: a response header and ``count`` records."""
    digest_len, tag_len = (rng.choice(FIELD_LENGTHS) for _ in range(2))
    records = []
    for _ in range(count):
        if mixed:
            digest_len, tag_len = (rng.choice(FIELD_LENGTHS)
                                   for _ in range(2))
        records.append(prefixed_record(rng, digest_len, tag_len))
    return struct.pack(">BH", 2, count) + b"".join(records), count


def decode_outcome(decoder, payload: bytes, count: int):
    """The batch's columns, or the error text, of one decode."""
    try:
        batch = decoder(payload, 3, count)
    except MeasurementDecodeError as exc:
        return ("error", str(exc))
    columns = (batch.timestamps, batch.mac_inputs, batch.digests, batch.tags)
    assert all(type(value) is bytes
               for column in columns[1:] for value in column)
    return ("ok", columns)


def assert_twins(payload: bytes, count: int):
    columnar = decode_outcome(decode_records, payload, count)
    assert columnar == decode_outcome(_decode_each, payload, count)
    return columnar


def corpus(seed: int):
    """Seeded ``(payload, count)`` lists: uniform ones of 0-40 records
    at every digest/tag length pair, mixed-length ones, and both with
    corrupted length fields, wrong counts and trailing bytes."""
    rng = random.Random(seed)
    for count in range(41):
        payload, count = record_list(rng, count)
        yield payload, count
        yield record_list(rng, count, mixed=True)
        if count:
            yield payload, count - 1
            yield payload, count + 1
            yield payload + rng.randbytes(rng.randint(1, 80)), count
            corrupted = bytearray(payload)
            for _ in range(rng.randint(1, 3)):
                record_size = (len(payload) - 3) // count
                start = 3 + rng.randrange(count) * record_size
                field = rng.choice((0, 10, 12))
                (value,) = struct.unpack_from(">H", corrupted, start + field)
                value = rng.choice((value - 1, value + 1,
                                    rng.getrandbits(16))) & 0xFFFF
                struct.pack_into(">H", corrupted, start + field, value)
            yield bytes(corrupted), count
            # One record splits the same length differently: every
            # length field still adds up, so the walk decodes it.
            shifted = bytearray(payload)
            start = 3 + rng.randrange(count) * ((len(payload) - 3) // count)
            digest_len, tag_len = struct.unpack_from(">HH", shifted,
                                                     start + 10)
            if tag_len:
                struct.pack_into(">HH", shifted, start + 10,
                                 digest_len + 1, tag_len - 1)
                yield bytes(shifted), count


@pytest.mark.parametrize("seed", [3001, 3002, 3003])
def test_columnar_decode_matches_the_record_walk(seed):
    outcomes = [assert_twins(payload, count)[0]
                for payload, count in corpus(seed)]
    assert "ok" in outcomes and "error" in outcomes


@pytest.mark.parametrize("digest_len", FIELD_LENGTHS)
@pytest.mark.parametrize("tag_len", FIELD_LENGTHS)
def test_every_truncation_decodes_alike_on_both_paths(digest_len, tag_len):
    rng = random.Random(f"truncate/{digest_len}/{tag_len}")
    payload = struct.pack(">BH", 2, 3) + b"".join(
        prefixed_record(rng, digest_len, tag_len) for _ in range(3))
    for cut in range(3, len(payload) + 1):
        assert_twins(payload[:cut], 3)


def test_uniform_lists_take_the_columnar_pass(monkeypatch):
    walked = []

    def recorded_walk(data, offset, count):
        walked.append(count)
        return _decode_each(data, offset, count)

    monkeypatch.setattr(measurement_module, "_decode_each", recorded_walk)
    rng = random.Random(3004)
    for count in range(1, 41):
        payload, count = record_list(rng, count)
        decode_records(payload, 3, count)
    assert walked == []
    # A mixed-length list is decoded by the walk, not refused.
    payload = struct.pack(">BH", 2, 2) + prefixed_record(rng, 32, 32) \
        + prefixed_record(rng, 20, 32)
    assert len(decode_records(payload, 3, 2)) == 2
    assert walked == [2]
