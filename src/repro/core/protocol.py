"""Protocol messages for collection and on-demand attestation.

Two exchanges from the paper:

* the ERASMUS collection protocol (Figure 2): the verifier sends
  ``collect k``; the prover answers with its ``k`` latest stored
  measurements — no cryptography, no state change, no request
  authentication (there is nothing to DoS);
* the ERASMUS+OD protocol (Figure 4): the request additionally carries a
  fresh timestamp ``t_req`` and ``MAC_K(t_req)``; the prover
  authenticates it, computes one on-demand measurement ``M_0`` and
  returns it together with the stored history.

Messages have a canonical byte encoding so they can travel over the
simulated network (:mod:`repro.net`) and so message sizes are realistic
for the swarm experiments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.arch.base import encode_timestamp
from repro.core.measurement import (
    Buffer,
    Measurement,
    MeasurementDecodeError,
    RecordBatch,
    decode_records,
    encode_records,
)

_COLLECT_HEADER = struct.Struct(">BI")          # message type, k
_ONDEMAND_HEADER = struct.Struct(">BIQH")       # type, k, t_req_us, tag length
_RESPONSE_HEADER = struct.Struct(">BH")         # message type, record count

_TYPE_COLLECT_REQUEST = 1
_TYPE_COLLECT_RESPONSE = 2
_TYPE_ONDEMAND_REQUEST = 3
_TYPE_ONDEMAND_RESPONSE = 4

#: Upper bound on ``k``: a response cannot carry more records than its
#: 16-bit record counter can describe, so any larger request is either a
#: bug or an attempted resource-exhaustion probe and is rejected at the
#: message layer.
MAX_K = 0xFFFF


class ProtocolDecodeError(Exception):
    """A protocol message could not be decoded."""


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_K:
        raise ValueError(f"k must not exceed {MAX_K}")


@dataclass(frozen=True)
class CollectRequest:
    """Verifier -> prover: "collect k" (Figure 2)."""

    k: int

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        _check_k(self.k)
        return _COLLECT_HEADER.pack(_TYPE_COLLECT_REQUEST, self.k)

    @classmethod
    def decode(cls, payload: bytes) -> "CollectRequest":
        """Parse the wire format."""
        try:
            message_type, k = _COLLECT_HEADER.unpack(payload)
        except struct.error as exc:
            raise ProtocolDecodeError("malformed collect request") from exc
        if message_type != _TYPE_COLLECT_REQUEST:
            raise ProtocolDecodeError("not a collect request")
        if k > MAX_K:
            raise ProtocolDecodeError(f"oversized k ({k} > {MAX_K})")
        return cls(k=k)


def _decode_measurements(payload: Buffer, offset: int,
                         count: int) -> RecordBatch:
    """:func:`decode_records`, its errors raised as protocol errors."""
    try:
        return decode_records(payload, offset, count)
    except MeasurementDecodeError as exc:
        raise ProtocolDecodeError(str(exc)) from exc


def encode_collect_response(records: Sequence[bytes]) -> bytes:
    """A collect response carrying ``records``, newest first.

    Each record is in the length-prefixed form of
    :func:`~repro.core.measurement.encode_record`, the form the prover's
    buffer stores, so serving a collection joins stored bytes.
    """
    return b"".join((_RESPONSE_HEADER.pack(_TYPE_COLLECT_RESPONSE,
                                           len(records)), *records))


@dataclass(frozen=True)
class CollectResponse:
    """Prover -> verifier: the k latest stored measurements, newest first.

    A decoded response carries its records as one :class:`RecordBatch`.
    """

    measurements: Sequence[Measurement] = field(default_factory=list)

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        return encode_collect_response(encode_records(self.measurements))

    @classmethod
    def decode(cls, payload: Buffer) -> "CollectResponse":
        """Parse the wire format into a :class:`RecordBatch` of records."""
        if len(payload) < _RESPONSE_HEADER.size:
            raise ProtocolDecodeError("malformed collect response")
        message_type, count = _RESPONSE_HEADER.unpack_from(payload)
        if message_type != _TYPE_COLLECT_RESPONSE:
            raise ProtocolDecodeError("not a collect response")
        return cls(measurements=_decode_measurements(
            payload, _RESPONSE_HEADER.size, count))

    @property
    def size_bytes(self) -> int:
        """Encoded size of the response."""
        return len(self.encode())


@dataclass(frozen=True)
class OnDemandRequest:
    """Verifier -> prover for ERASMUS+OD: ``t_req, k, MAC_K(t_req)``."""

    request_time: float
    k: int
    tag: bytes

    def authenticated_payload(self) -> bytes:
        """Bytes covered by the request MAC (the canonical timestamp)."""
        return encode_timestamp(self.request_time)

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        _check_k(self.k)
        header = _ONDEMAND_HEADER.pack(
            _TYPE_ONDEMAND_REQUEST, self.k,
            int(round(self.request_time * 1_000_000)), len(self.tag))
        return header + self.tag

    @classmethod
    def decode(cls, payload: Buffer) -> "OnDemandRequest":
        """Parse the wire format."""
        if len(payload) < _ONDEMAND_HEADER.size:
            raise ProtocolDecodeError("malformed on-demand request")
        message_type, k, time_us, tag_length = _ONDEMAND_HEADER.unpack_from(
            payload)
        if message_type != _TYPE_ONDEMAND_REQUEST:
            raise ProtocolDecodeError("not an on-demand request")
        if k > MAX_K:
            raise ProtocolDecodeError(f"oversized k ({k} > {MAX_K})")
        # Requests are tiny and the tag is retained for verification, so
        # a copy is the right call here (views would pin the whole frame).
        tag = bytes(memoryview(payload)[_ONDEMAND_HEADER.size:])
        if len(tag) != tag_length:
            raise ProtocolDecodeError("on-demand request tag length mismatch")
        return cls(request_time=time_us / 1_000_000, k=k, tag=tag)


@dataclass(frozen=True)
class OnDemandResponse:
    """Prover -> verifier for ERASMUS+OD: fresh ``M_0`` plus the history.

    ``fresh`` is ``None`` when the prover refused the request (failed
    authentication); the history list is then empty as well.
    """

    fresh: Optional[Measurement]
    measurements: List[Measurement] = field(default_factory=list)

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        records = ([self.fresh] if self.fresh is not None else []) + \
            list(self.measurements)
        header = _RESPONSE_HEADER.pack(_TYPE_ONDEMAND_RESPONSE, len(records))
        flag = b"\x01" if self.fresh is not None else b"\x00"
        return b"".join((header, flag, *encode_records(records)))

    @classmethod
    def decode(cls, payload: Buffer) -> "OnDemandResponse":
        """Parse the wire format (records hold ``bytes`` fields)."""
        minimum = _RESPONSE_HEADER.size + 1
        if len(payload) < minimum:
            raise ProtocolDecodeError("malformed on-demand response")
        message_type, count = _RESPONSE_HEADER.unpack_from(payload)
        if message_type != _TYPE_ONDEMAND_RESPONSE:
            raise ProtocolDecodeError("not an on-demand response")
        flag = payload[_RESPONSE_HEADER.size]
        if flag > 1:
            raise ProtocolDecodeError(
                f"invalid fresh-measurement flag {flag}")
        has_fresh = flag == 1
        records = list(_decode_measurements(payload, minimum, count))
        if has_fresh:
            if not records:
                raise ProtocolDecodeError("fresh measurement flagged but absent")
            return cls(fresh=records[0], measurements=records[1:])
        return cls(fresh=None, measurements=records)


AnyRequest = Union[CollectRequest, OnDemandRequest]
AnyResponse = Union[CollectResponse, OnDemandResponse]

_REQUEST_DECODERS = {
    _TYPE_COLLECT_REQUEST: CollectRequest.decode,
    _TYPE_ONDEMAND_REQUEST: OnDemandRequest.decode,
}
_RESPONSE_DECODERS = {
    _TYPE_COLLECT_RESPONSE: CollectResponse.decode,
    _TYPE_ONDEMAND_RESPONSE: OnDemandResponse.decode,
}


def decode_request(payload: Buffer) -> AnyRequest:
    """Decode a verifier-to-prover message by its type tag.

    Transports use this to dispatch incoming requests without knowing in
    advance whether a collection is plain or on-demand.
    """
    if not len(payload):
        raise ProtocolDecodeError("empty request")
    try:
        decoder = _REQUEST_DECODERS[payload[0]]
    except KeyError as exc:
        raise ProtocolDecodeError(
            f"unknown request type {payload[0]}") from exc
    return decoder(payload)


def decode_response(payload: Buffer) -> AnyResponse:
    """Decode a prover-to-verifier message by its type tag.

    Decoded measurement fields are ``bytes`` (a view or bytearray
    payload is copied once), so records never pin the receive buffer.
    """
    if not len(payload):
        raise ProtocolDecodeError("empty response")
    try:
        decoder = _RESPONSE_DECODERS[payload[0]]
    except KeyError as exc:
        raise ProtocolDecodeError(
            f"unknown response type {payload[0]}") from exc
    return decoder(payload)
