"""The measurement record ``M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>``.

Measurements are produced by the security architecture
(:meth:`repro.arch.SecurityArchitecture.perform_measurement`), stored in
the prover's insecure rolling buffer and later shipped to the verifier
unencrypted (they are authenticated by the MAC and contain no secrets;
Section 3.2).  This module defines the record and its compact,
canonical wire encoding for network transfer
(:func:`encode_record`); the buffer
(:class:`repro.core.storage.MeasurementStore`) keeps each record in
that encoding and builds :class:`Measurement` objects only for callers
that read it.

A received record list decodes into one :class:`RecordBatch`: four
columns (timestamps, MAC inputs as received, digests, tags) rather
than one object per record.  The verifier judges the columns directly;
the batch builds :class:`Measurement` records only for a caller that
indexes or iterates it.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import concat
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.arch.base import MeasurementOutput, encode_timestamp

_HEADER = struct.Struct(">QHH")  # timestamp_us, digest_len, tag_len
_TIMESTAMP_SIZE = 8  # the big-endian timestamp_us that opens the header
# In a record list each record carries a length prefix; the prefix and
# the header are read or written together in one call.
_LENGTH = struct.Struct(">H")
_PREFIXED_HEADER = struct.Struct(">HQHH")

#: Anything the codec accepts as an encoded record.  Decoders copy a
#: view or bytearray into ``bytes`` once, so decoded ``digest`` and
#: ``tag`` fields are always plain ``bytes``.
Buffer = Union[bytes, bytearray, memoryview]

_new = object.__new__
_set = object.__setattr__


class MeasurementDecodeError(Exception):
    """A byte string could not be decoded into a measurement record."""


@dataclass(frozen=True)
class Measurement:
    """One self-measurement record.

    ``timestamp`` is the RROC value at measurement time (seconds),
    ``digest`` is ``H(mem_t)`` and ``tag`` is ``MAC_K(t, H(mem_t))``.
    ``duration`` (not transmitted) records the modelled run-time of the
    measurement on the prover, used by availability experiments.

    A record read out of a :class:`RecordBatch` decoded from the wire
    also remembers its MAC input as received (see :meth:`mac_input`);
    the verifier itself judges the batch's columns and builds no
    record.  The MAC input is not a dataclass field:
    it is never encoded, compared, hashed or shown, and every other way
    of building a record — direct construction or
    ``dataclasses.replace`` — leaves it unset, so a record whose
    timestamp or digest changed after decode is MAC-checked against a
    fresh encoding of its fields and fails.
    """

    timestamp: float
    digest: bytes
    tag: bytes
    duration: float = 0.0

    # Class-level default; only :func:`_received_record` sets it per
    # instance.
    _received = None

    @classmethod
    def from_output(cls, output: MeasurementOutput) -> "Measurement":
        """Build a record from the architecture's raw measurement output.

        Sets the fields the way :func:`_received_record` does, so the
        result is frozen, equal and hashes like ``Measurement(...)``.
        """
        record = _new(cls)
        _set(record, "timestamp", output.timestamp)
        _set(record, "digest", output.digest)
        _set(record, "tag", output.tag)
        _set(record, "duration", output.duration)
        return record

    def authenticated_payload(self) -> bytes:
        """The bytes the MAC covers: canonical timestamp followed by digest."""
        return b"".join((encode_timestamp(self.timestamp), self.digest))

    def mac_input(self) -> bytes:
        """The bytes this record's tag is checked against.

        For a decoded record, the eight timestamp bytes and the digest
        exactly as received, so the verifier MACs the bytes it was sent
        and the judged timestamp and digest are the ones those bytes
        encode.  For any other record, :meth:`authenticated_payload`.
        """
        received = self._received
        return self.authenticated_payload() if received is None \
            else received

    def encode(self) -> bytes:
        """Serialize to the canonical wire format (no length prefix)."""
        return encode_record(self.timestamp, self.digest,
                             self.tag)[_LENGTH.size:]

    @staticmethod
    def decode(payload: Buffer) -> "Measurement":
        """Parse the canonical wire format back into a record.

        ``digest`` and ``tag`` are ``bytes``; the record's
        :meth:`mac_input` is the received timestamp bytes and digest.
        """
        data = _as_bytes(payload)
        if len(data) < _HEADER.size:
            raise MeasurementDecodeError("measurement record truncated")
        timestamp_us, digest_len, tag_len = _HEADER.unpack_from(data)
        expected = _HEADER.size + digest_len + tag_len
        if len(data) != expected:
            raise MeasurementDecodeError(
                f"measurement record has {len(data)} bytes, "
                f"expected {expected}")
        digest_end = _HEADER.size + digest_len
        digest = data[_HEADER.size:digest_end]
        return _received_record(timestamp_us / 1_000_000, digest,
                                data[digest_end:],
                                data[:_TIMESTAMP_SIZE] + digest)

    @property
    def size_bytes(self) -> int:
        """Encoded size of the record in bytes."""
        return _HEADER.size + len(self.digest) + len(self.tag)


def _as_bytes(payload: Buffer) -> bytes:
    """``payload`` as ``bytes``, copying a view or bytearray once."""
    return payload if type(payload) is bytes else bytes(payload)


def _received_record(timestamp: float, digest: bytes, tag: bytes,
                     received: bytes) -> Measurement:
    """A decoded record whose MAC input is ``received``.

    Sets the fields in the generated ``__init__``'s order without its
    call overhead (the class has no ``__post_init__``), so the result is
    frozen, equal and hashes like ``Measurement(...)``.  Going through
    ``object.__setattr__`` rather than ``__dict__`` keeps the attributes
    inline: one garbage-collected allocation per record, not two.
    """
    record = _new(Measurement)
    _set(record, "timestamp", timestamp)
    _set(record, "digest", digest)
    _set(record, "tag", tag)
    _set(record, "duration", 0.0)
    _set(record, "_received", received)
    return record


class RecordBatch(Sequence):
    """A record list as four columns: ``Sequence[Measurement]``.

    ``timestamps`` are in seconds, ``mac_inputs`` are the bytes each
    tag is checked against (for a decoded batch, the eight timestamp
    bytes and the digest exactly as received), ``digests`` and ``tags``
    are ``bytes``.  The columns are what the verifier judges, and
    :func:`decode_records` builds a batch's columns whole, not record
    by record.  Indexing, slicing, iteration and ``==`` see
    :class:`Measurement` records: a decoded batch builds them on first
    use (frozen, equal and hashing like ``Measurement(...)``, each
    remembering its received MAC input); a batch
    :meth:`from_measurements` hands out the caller's own records.
    """

    __slots__ = ("timestamps", "mac_inputs", "digests", "tags", "_records")

    def __init__(self, timestamps: List[float], mac_inputs: List[bytes],
                 digests: List[bytes], tags: List[bytes],
                 records: Optional[List[Measurement]] = None) -> None:
        self.timestamps = timestamps
        self.mac_inputs = mac_inputs
        self.digests = digests
        self.tags = tags
        self._records = records

    @classmethod
    def from_measurements(cls, records: Iterable[Measurement]
                          ) -> "RecordBatch":
        """The columns of records that did not come off the wire."""
        records = list(records)
        return cls([record.timestamp for record in records],
                   [record.mac_input() for record in records],
                   [record.digest for record in records],
                   [record.tag for record in records], records)

    def _materialized(self) -> List[Measurement]:
        records = self._records
        if records is None:
            records = self._records = list(map(
                _received_record, self.timestamps, self.digests, self.tags,
                self.mac_inputs))
        return records

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordBatch, list)):
            return self._materialized() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RecordBatch({self._materialized()!r})"


def encode_record(timestamp: float, digest: bytes, tag: bytes) -> bytes:
    """One length-prefixed record: the form a record list carries it in.

    One ``struct`` pack writes the length prefix and the header; digest
    and tag follow as they are.  The prover's buffer stores records in
    this form, so serving a collection joins stored bytes.
    """
    digest_len, tag_len = len(digest), len(tag)
    return b"".join((_PREFIXED_HEADER.pack(
        _HEADER.size + digest_len + tag_len, round(timestamp * 1_000_000),
        digest_len, tag_len), digest, tag))


def record_fields(record: bytes) -> Tuple[bytes, bytes]:
    """The digest and tag of a record from :func:`encode_record`."""
    digest_end = _PREFIXED_HEADER.size + _PREFIXED_HEADER.unpack_from(
        record)[2]
    return record[_PREFIXED_HEADER.size:digest_end], record[digest_end:]


def encode_records(measurements: Iterable[Measurement]) -> List[bytes]:
    """:func:`encode_record` of each record, in order."""
    return [encode_record(measurement.timestamp, measurement.digest,
                          measurement.tag) for measurement in measurements]


def _record_list_error(data: bytes, offset: int) -> MeasurementDecodeError:
    """Why the record at ``offset`` is malformed, checked field by field.

    :func:`_decode_each` only comes here once its combined check
    failed, so one of these checks (or :meth:`Measurement.decode`'s
    own) fails.
    """
    if offset + _LENGTH.size > len(data):
        return MeasurementDecodeError("truncated measurement list")
    (length,) = _LENGTH.unpack_from(data, offset)
    start = offset + _LENGTH.size
    if start + length > len(data):
        return MeasurementDecodeError("truncated measurement record")
    try:
        Measurement.decode(data[start:start + length])
    except MeasurementDecodeError as exc:
        return exc
    return MeasurementDecodeError("malformed measurement record")


def _decode_each(data: bytes, offset: int, count: int) -> RecordBatch:
    """The record-by-record decode: any record list, every error message.

    Each record costs one ``struct`` unpack (length prefix and header
    together) and ``bytes`` slices for its digest, tag and MAC input,
    appended to the :class:`RecordBatch` columns.  :func:`decode_records`
    comes here for a list its columnar pass does not take: records of
    mixed lengths, or malformed data, whose error this walk names.
    """
    end = len(data)
    unpack = _PREFIXED_HEADER.unpack_from
    prefixed_size, header_size = _PREFIXED_HEADER.size, _HEADER.size
    timestamps: List[float] = []
    mac_inputs: List[bytes] = []
    digests: List[bytes] = []
    tags: List[bytes] = []
    add_timestamp, add_mac_input, add_digest, add_tag = (
        timestamps.append, mac_inputs.append, digests.append, tags.append)
    for _ in range(count):
        if offset + prefixed_size > end:
            raise _record_list_error(data, offset)
        length, timestamp_us, digest_len, tag_len = unpack(data, offset)
        start = offset + _LENGTH.size
        stop = start + length
        if length != header_size + digest_len + tag_len or stop > end:
            raise _record_list_error(data, offset)
        digest_start = start + header_size
        digest_end = digest_start + digest_len
        digest = data[digest_start:digest_end]
        add_timestamp(timestamp_us / 1_000_000)
        add_mac_input(data[start:start + _TIMESTAMP_SIZE] + digest)
        add_digest(digest)
        add_tag(data[digest_end:stop])
        offset = stop
    if offset != end:
        raise MeasurementDecodeError("trailing bytes after measurement list")
    return RecordBatch(timestamps, mac_inputs, digests, tags)


@lru_cache(maxsize=64)
def _record_layout(digest_len: int,
                   tag_len: int) -> Tuple[struct.Struct, struct.Struct]:
    """The structs that read records with these digest and tag lengths.

    The first reads a whole length-prefixed record (length, timestamp,
    digest length, tag length, digest, tag); the second only the
    timestamp's eight bytes as received.  Cached per length pair, never
    per record count: a format spanning a whole list would be compiled
    once per count, and a 65,535-record one is megabytes.
    """
    rest = _HEADER.size - _TIMESTAMP_SIZE + digest_len + tag_len
    return (struct.Struct(f">HQHH{digest_len}s{tag_len}s"),
            struct.Struct(f">{_LENGTH.size}x{_TIMESTAMP_SIZE}s{rest}x"))


def decode_records(payload: Buffer, offset: int,
                   count: int) -> RecordBatch:
    """Decode ``count`` length-prefixed records filling ``payload[offset:]``.

    ``payload`` is copied to ``bytes`` once if it is not already.  A
    list whose records all share the first record's digest and tag
    lengths, the common case, is read in columnar passes: one
    ``iter_unpack`` of a cached record struct over the list, a second
    for the received timestamp bytes, a ``tuple.count`` per length
    field to check that every record carries the expected lengths, one
    comprehension for the timestamps in seconds and one ``map`` for
    the MAC inputs (the received timestamp bytes followed by the
    digest).  Any other list goes through :func:`_decode_each`, which
    decodes a list of mixed lengths and names what is wrong with a
    malformed one.  No :class:`Measurement` is built.
    """
    data = _as_bytes(payload)
    remaining = len(data) - offset
    if count and remaining >= _PREFIXED_HEADER.size:
        length, _, digest_len, tag_len = _PREFIXED_HEADER.unpack_from(
            data, offset)
        if length == _HEADER.size + digest_len + tag_len and \
                count * (_LENGTH.size + length) == remaining:
            record, stamp = _record_layout(digest_len, tag_len)
            view = memoryview(data)[offset:]
            (lengths, timestamps_us, digest_lens, tag_lens, digests,
             tags) = zip(*record.iter_unpack(view))
            if lengths.count(length) == digest_lens.count(digest_len) \
                    == tag_lens.count(tag_len) == count:
                return RecordBatch(
                    [timestamp_us / 1_000_000
                     for timestamp_us in timestamps_us],
                    list(map(concat, chain.from_iterable(
                        stamp.iter_unpack(view)), digests)),
                    list(digests), list(tags))
    return _decode_each(data, offset, count)
