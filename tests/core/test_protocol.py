"""Tests for the protocol message encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CollectRequest,
    CollectResponse,
    Measurement,
    OnDemandRequest,
    OnDemandResponse,
)
from repro.core.protocol import ProtocolDecodeError


def record(timestamp: float) -> Measurement:
    return Measurement(timestamp=timestamp, digest=bytes([int(timestamp)]) * 32,
                       tag=b"\x99" * 32)


def test_collect_request_roundtrip():
    request = CollectRequest(k=7)
    assert CollectRequest.decode(request.encode()) == request


def test_collect_request_invalid():
    with pytest.raises(ValueError):
        CollectRequest(k=-1).encode()
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(b"\xFF\x00\x00\x00\x07")
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(b"\x01")


def test_collect_response_roundtrip():
    response = CollectResponse(measurements=[record(30.0), record(20.0)])
    decoded = CollectResponse.decode(response.encode())
    assert len(decoded.measurements) == 2
    assert decoded.measurements[0].timestamp == pytest.approx(30.0)
    assert decoded.measurements[1].digest == record(20.0).digest


def test_empty_collect_response_roundtrip():
    decoded = CollectResponse.decode(CollectResponse().encode())
    assert decoded.measurements == []


def test_collect_response_rejects_corruption():
    encoded = CollectResponse(measurements=[record(30.0)]).encode()
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(encoded[:-4])
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(encoded + b"\x00")
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(b"\x07" + encoded[1:])


def test_ondemand_request_roundtrip():
    request = OnDemandRequest(request_time=101.5, k=4, tag=b"\x42" * 32)
    decoded = OnDemandRequest.decode(request.encode())
    assert decoded.request_time == pytest.approx(101.5)
    assert decoded.k == 4
    assert decoded.tag == b"\x42" * 32


def test_ondemand_request_rejects_bad_payload():
    with pytest.raises(ProtocolDecodeError):
        OnDemandRequest.decode(b"\x03\x00")
    encoded = OnDemandRequest(request_time=1.0, k=1, tag=b"\x00" * 32).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandRequest.decode(encoded[:-1])


def test_ondemand_response_roundtrip_with_fresh():
    response = OnDemandResponse(fresh=record(50.0),
                                measurements=[record(40.0), record(30.0)])
    decoded = OnDemandResponse.decode(response.encode())
    assert decoded.fresh is not None
    assert decoded.fresh.timestamp == pytest.approx(50.0)
    assert [m.timestamp for m in decoded.measurements] == [40.0, 30.0]


def test_ondemand_response_roundtrip_refusal():
    decoded = OnDemandResponse.decode(
        OnDemandResponse(fresh=None, measurements=[]).encode())
    assert decoded.fresh is None
    assert decoded.measurements == []


def test_response_size_reflects_measurement_count():
    small = CollectResponse(measurements=[record(1.0)])
    large = CollectResponse(measurements=[record(float(t)) for t in range(10)])
    assert large.size_bytes > small.size_bytes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=12))
def test_collect_response_roundtrip_property(timestamps):
    response = CollectResponse(measurements=[record(min(t, 255.0))
                                             for t in timestamps])
    decoded = CollectResponse.decode(response.encode())
    assert len(decoded.measurements) == len(timestamps)


# ----------------------------------------------------------------------
# Decode error paths (truncation, wrong types, oversized k)
# ----------------------------------------------------------------------

def test_collect_request_rejects_oversized_k():
    from repro.core.protocol import _COLLECT_HEADER, MAX_K
    with pytest.raises(ValueError):
        CollectRequest(k=MAX_K + 1).encode()
    oversized = _COLLECT_HEADER.pack(1, MAX_K + 1)
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(oversized)
    # The boundary value itself round-trips.
    assert CollectRequest.decode(CollectRequest(k=MAX_K).encode()).k == MAX_K


def test_ondemand_request_rejects_oversized_k():
    from repro.core.protocol import MAX_K
    with pytest.raises(ValueError):
        OnDemandRequest(request_time=1.0, k=MAX_K + 1, tag=b"\x00" * 32).encode()


def test_collect_response_rejects_truncated_record():
    encoded = CollectResponse(measurements=[record(30.0), record(20.0)]).encode()
    for cut in (len(encoded) - 1, len(encoded) - 20, len(encoded) - 40):
        with pytest.raises(ProtocolDecodeError):
            CollectResponse.decode(encoded[:cut])


def test_collect_response_rejects_record_length_past_payload():
    import struct
    # One record whose declared length points past the end of the payload.
    header = struct.pack(">BH", 2, 1)
    bogus = header + struct.pack(">H", 500) + b"\x00" * 10
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(bogus)


def test_responses_reject_wrong_message_type():
    collect_encoded = CollectResponse(measurements=[record(30.0)]).encode()
    ondemand_encoded = OnDemandResponse(fresh=record(30.0)).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(collect_encoded)
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(ondemand_encoded)


def test_ondemand_response_rejects_truncated_payload():
    encoded = OnDemandResponse(fresh=record(50.0),
                               measurements=[record(40.0)]).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(encoded[:2])
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(encoded[:-5])


def test_ondemand_response_rejects_fresh_flag_without_records():
    import struct
    bogus = struct.pack(">BH", 4, 0) + b"\x01"
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(bogus)


@pytest.mark.parametrize("flag", [2, 0x7F, 0xFF])
@pytest.mark.parametrize("fresh", [None, 50.0])
def test_ondemand_response_rejects_an_unknown_fresh_flag(flag, fresh):
    # encode only ever writes 0 or 1; any other byte is not read as
    # "no fresh measurement".
    encoded = bytearray(OnDemandResponse(
        fresh=None if fresh is None else record(fresh),
        measurements=[record(40.0)]).encode())
    encoded[3] = flag
    with pytest.raises(ProtocolDecodeError,
                       match=f"^invalid fresh-measurement flag {flag}$"):
        OnDemandResponse.decode(bytes(encoded))


def test_decode_request_dispatches_by_type():
    from repro.core.protocol import decode_request
    collect = decode_request(CollectRequest(k=3).encode())
    assert isinstance(collect, CollectRequest)
    ondemand = decode_request(
        OnDemandRequest(request_time=5.0, k=2, tag=b"\x01" * 32).encode())
    assert isinstance(ondemand, OnDemandRequest)
    with pytest.raises(ProtocolDecodeError):
        decode_request(b"")
    with pytest.raises(ProtocolDecodeError):
        decode_request(b"\x09rest")
    # Responses are not requests.
    with pytest.raises(ProtocolDecodeError):
        decode_request(CollectResponse().encode())


def test_decode_response_dispatches_by_type():
    from repro.core.protocol import decode_response
    collect = decode_response(CollectResponse([record(1.0)]).encode())
    assert isinstance(collect, CollectResponse)
    ondemand = decode_response(OnDemandResponse(fresh=record(2.0)).encode())
    assert isinstance(ondemand, OnDemandResponse)
    with pytest.raises(ProtocolDecodeError):
        decode_response(b"")
    with pytest.raises(ProtocolDecodeError):
        decode_response(CollectRequest(k=1).encode())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=0xFFFF))
def test_collect_request_roundtrip_property(k):
    assert CollectRequest.decode(CollectRequest(k=k).encode()).k == k


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=0xFFFF),
       st.binary(min_size=0, max_size=64))
def test_ondemand_request_roundtrip_property(request_time, k, tag):
    request = OnDemandRequest(request_time=request_time, k=k, tag=tag)
    decoded = OnDemandRequest.decode(request.encode())
    assert decoded.k == k
    assert decoded.tag == tag
    assert decoded.request_time == pytest.approx(request_time, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=255, allow_nan=False),
                max_size=8),
       st.booleans())
def test_ondemand_response_roundtrip_property(timestamps, with_fresh):
    fresh = record(77.0) if with_fresh else None
    response = OnDemandResponse(fresh=fresh,
                                measurements=[record(t) for t in timestamps])
    decoded = OnDemandResponse.decode(response.encode())
    assert (decoded.fresh is not None) == with_fresh
    assert len(decoded.measurements) == len(timestamps)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=80))
def test_decoders_never_crash_on_fuzz(payload):
    """Arbitrary bytes either decode cleanly or raise ProtocolDecodeError."""
    from repro.core.protocol import decode_request, decode_response
    for decoder in (decode_request, decode_response):
        try:
            decoder(payload)
        except ProtocolDecodeError:
            pass
