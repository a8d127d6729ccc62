"""The worker side of process-mode verification, and the pipe protocol.

A worker is fed over a ``multiprocessing`` pipe by the parent's
:class:`repro.fleet.workers.WorkerPool`.  Both ends frame their
messages with this module, so the protocol is defined once.  A frame
is ``opcode (1 byte) ‖ correlation id (8 bytes) ‖ body``, and each
message is built as one frame by one join:

* parent to worker: a task (:func:`encode_task`), a hard exit
  (:func:`exit_frame`, crash injection) or a clean shutdown
  (:func:`shutdown_frame`);
* worker to parent, one per request and in order: a result
  (:func:`encode_result`) or an error carrying the worker's
  traceback, split by :func:`decode_reply`.

A task carries each device's whole enrollment (id, key, digest
whitelist, ``last_seen``) beside its raw response payload (or its
absence), so a worker holds no enrollment state of its own.
:func:`worker_main` judges every entry through one
:class:`~repro.core.verification.DeviceJudges`, the same
decode-and-judge path as an inline round, and answers with one binary
record per report plus one :class:`~repro.worker.health.FleetHealth`
part.  A record holds the report's fields but not its device id: the
reports come back in task order, so :func:`decode_result` takes the
task's device ids and rebuilds each
:class:`~repro.core.verification.VerificationReport` directly.  The
health part stays JSON, so its ``Fraction`` travels exactly.

Both decoders check every length against the bytes left and require
the body to be consumed exactly; a short, over-long or otherwise
malformed body raises :class:`WorkerError` rather than decoding to a
shorter view.
"""

from __future__ import annotations

import json
import os
import struct
import time as _time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ErasmusConfig
from repro.core.verification import DeviceJudges, DeviceStatus, \
    Enrollment, VerificationCore, VerificationReport
from repro.worker.health import FleetHealth

_FRAME = struct.Struct(">BQ")          # opcode, correlation id
_TASK_HEADER = struct.Struct(">dBI")   # collection_time, flags, entry count
# device-id length, entry flags, key length, digest count
_ENTRY_HEADER = struct.Struct(">HBHH")
_DIGEST_LENGTH = struct.Struct(">H")
_LAST_SEEN = struct.Struct(">d")
_PAYLOAD_LENGTH = struct.Struct(">I")
_RESULT_HEADER = struct.Struct(">BI")  # flags, report count
# collection_time, status code, presence flags, measurement count,
# missing intervals, freshness, newest timestamp, anomaly count,
# infected-timestamp count
_REPORT = struct.Struct(">dBBQQddII")
_U64_MAX = 2 ** 64 - 1
_BLOB_LENGTH = struct.Struct(">I")
_TIMING = struct.Struct(">d")

OP_TASK = 2          # parent -> worker: verify one batch of payloads
OP_RESULT = 3        # worker -> parent: report records + health part
OP_ERROR = 4         # worker -> parent: traceback text
OP_EXIT = 5          # parent -> worker: hard os._exit (crash injection)
OP_SHUTDOWN = 6      # parent -> worker: clean exit

_TASK_WANT_TIMINGS = 0x01
_TASK_CRASH = 0x02
_ENTRY_HAS_LAST_SEEN = 0x01
_ENTRY_HAS_PAYLOAD = 0x02
_RESULT_HAS_TIMINGS = 0x01
_REPORT_HAS_FRESHNESS = 0x01
_REPORT_HAS_NEWEST = 0x02
_REPORT_WIDE_MISSING = 0x04

#: A report's status byte is its index here.
_STATUSES = tuple(DeviceStatus)
_STATUS_CODES = {status: code for code, status in enumerate(_STATUSES)}

#: Exit code of a deliberately crashed worker (``inject_crash``).
CRASH_EXIT_CODE = 17


class WorkerError(Exception):
    """A worker reported a Python error, or a frame body is malformed."""


#: One verification unit: ``(enrollment, payload_or_None)``.
TaskEntry = Tuple[Enrollment, Optional[bytes]]


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def exit_frame(rid: int) -> bytes:
    """Parent side: make the worker ``os._exit`` now (crash injection)."""
    return _FRAME.pack(OP_EXIT, rid)


def shutdown_frame(rid: int) -> bytes:
    """Parent side: make the worker close its pipe and return."""
    return _FRAME.pack(OP_SHUTDOWN, rid)


def decode_reply(frame) -> Tuple[int, memoryview, Optional[str]]:
    """Parent side: split a worker's reply into ``(rid, body, error)``.

    ``error`` is ``None`` for a result.  For an error reply it carries
    the worker's traceback; for any other opcode it says so, since a
    frame the parent cannot interpret means the codecs disagree and its
    body must not be decoded as a result.
    """
    opcode, rid = _FRAME.unpack_from(frame)
    body = memoryview(frame)[_FRAME.size:]
    if opcode == OP_RESULT:
        return rid, body, None
    if opcode == OP_ERROR:
        return rid, body, f"failed:\n{str(body, 'utf-8')}"
    return rid, body, f"sent unexpected opcode {opcode}"


def _cut(view: memoryview, offset: int, length: int) -> memoryview:
    """``length`` bytes of ``view`` from ``offset``; raises if short."""
    stop = offset + length
    if stop > len(view):
        raise WorkerError(f"frame truncated: {length} bytes wanted at "
                          f"offset {offset}, {len(view) - offset} left")
    return view[offset:stop]


def _check_consumed(view: memoryview, offset: int) -> None:
    if offset != len(view):
        raise WorkerError(f"frame has {len(view) - offset} trailing bytes")


# ----------------------------------------------------------------------
# Binary task codec
# ----------------------------------------------------------------------

def encode_task(rid: int, collection_time: float,
                entries: Sequence[TaskEntry], *,
                want_timings: bool = False, crash: bool = False) -> bytes:
    """Serialize one verification task into its whole ``OP_TASK`` frame.

    Digests are packed in sorted order, so a frame's bytes do not
    depend on the hash seed that ordered the whitelist's ``frozenset``.
    """
    flags = (_TASK_WANT_TIMINGS if want_timings else 0) | \
        (_TASK_CRASH if crash else 0)
    parts: List[bytes] = [_FRAME.pack(OP_TASK, rid),
                          _TASK_HEADER.pack(collection_time, flags,
                                            len(entries))]
    for enrollment, payload in entries:
        encoded_id = enrollment.device_id.encode("utf-8")
        digests = sorted(enrollment.healthy_digests)
        last_seen = enrollment.last_seen
        entry_flags = (_ENTRY_HAS_LAST_SEEN if last_seen is not None else 0) \
            | (_ENTRY_HAS_PAYLOAD if payload is not None else 0)
        parts.append(_ENTRY_HEADER.pack(len(encoded_id), entry_flags,
                                        len(enrollment.key), len(digests)))
        parts.append(encoded_id)
        parts.append(enrollment.key)
        for digest in digests:
            parts.append(_DIGEST_LENGTH.pack(len(digest)))
            parts.append(digest)
        if last_seen is not None:
            parts.append(_LAST_SEEN.pack(last_seen))
        if payload is not None:
            parts.append(_PAYLOAD_LENGTH.pack(len(payload)))
            parts.append(payload)
    return b"".join(parts)


def decode_task(body) -> Tuple[float, int, List[TaskEntry]]:
    """Reverse :func:`encode_task`, given the frame's body.

    Payloads are zero-copy views.  Keys and digests are copied out as
    ``bytes``: a worker's cached judges outlive the frame.
    """
    view = memoryview(body).toreadonly()
    try:
        collection_time, flags, count = _TASK_HEADER.unpack_from(view)
        offset = _TASK_HEADER.size
        entries: List[TaskEntry] = []
        for _ in range(count):
            id_length, entry_flags, key_length, digest_count = \
                _ENTRY_HEADER.unpack_from(view, offset)
            offset += _ENTRY_HEADER.size
            device_id = str(_cut(view, offset, id_length), "utf-8")
            offset += id_length
            key = bytes(_cut(view, offset, key_length))
            offset += key_length
            digests = []
            for _ in range(digest_count):
                (length,) = _DIGEST_LENGTH.unpack_from(view, offset)
                offset += _DIGEST_LENGTH.size
                digests.append(bytes(_cut(view, offset, length)))
                offset += length
            last_seen = None
            if entry_flags & _ENTRY_HAS_LAST_SEEN:
                (last_seen,) = _LAST_SEEN.unpack_from(view, offset)
                offset += _LAST_SEEN.size
            payload = None
            if entry_flags & _ENTRY_HAS_PAYLOAD:
                (length,) = _PAYLOAD_LENGTH.unpack_from(view, offset)
                offset += _PAYLOAD_LENGTH.size
                payload = _cut(view, offset, length)
                offset += length
            entries.append((Enrollment(device_id, key, frozenset(digests),
                                       last_seen), payload))
    except struct.error as exc:
        raise WorkerError(f"task frame truncated: {exc}") from None
    _check_consumed(view, offset)
    return collection_time, flags, entries


# ----------------------------------------------------------------------
# Binary result codec
# ----------------------------------------------------------------------

def encode_result(rid: int, reports: Sequence[VerificationReport],
                  health_row: Dict[str, object],
                  timings: Optional[Sequence[float]] = None) -> bytes:
    """Serialize one task's result into its whole ``OP_RESULT`` frame.

    Per report: one fixed :data:`_REPORT` header, then its anomaly
    texts (length-prefixed UTF-8), then its infected timestamps (packed
    doubles).  Then the JSON health part, then the per-report timings.

    The gap count comes from prover-chosen timestamps, so it is not
    bounded by the frame: one past 64 bits (a forged record late on the
    wire's microsecond clock, judged against a sub-microsecond interval)
    follows the header as length-prefixed big-endian bytes instead.
    """
    flags = _RESULT_HAS_TIMINGS if timings is not None else 0
    parts: List[bytes] = [_FRAME.pack(OP_RESULT, rid),
                          _RESULT_HEADER.pack(flags, len(reports))]
    pack = _REPORT.pack
    for report in reports:
        freshness = report.freshness
        newest = report.newest_timestamp
        anomalies = report.anomalies
        infected = report.infected_timestamps
        missing = report.missing_intervals
        wide = missing > _U64_MAX
        present = (0 if freshness is None else _REPORT_HAS_FRESHNESS) | \
            (0 if newest is None else _REPORT_HAS_NEWEST) | \
            (_REPORT_WIDE_MISSING if wide else 0)
        parts.append(pack(report.collection_time, _STATUS_CODES[report.status],
                          present, report.measurement_count,
                          0 if wide else missing,
                          0.0 if freshness is None else freshness,
                          0.0 if newest is None else newest,
                          len(anomalies), len(infected)))
        if wide:
            encoded = missing.to_bytes((missing.bit_length() + 7) // 8, "big")
            parts.append(_BLOB_LENGTH.pack(len(encoded)))
            parts.append(encoded)
        for text in anomalies:
            encoded = text.encode("utf-8")
            parts.append(_BLOB_LENGTH.pack(len(encoded)))
            parts.append(encoded)
        if infected:
            parts.append(struct.pack(f">{len(infected)}d", *infected))
    health_blob = json.dumps(health_row, sort_keys=True).encode("utf-8")
    parts.append(_BLOB_LENGTH.pack(len(health_blob)))
    parts.append(health_blob)
    if timings is not None:
        parts.extend(_TIMING.pack(timing) for timing in timings)
    return b"".join(parts)


def decode_result(body, device_ids: Sequence[str]
                  ) -> Tuple[List[VerificationReport], Dict[str, object],
                             Optional[List[float]]]:
    """Reverse :func:`encode_result`, given the frame's body.

    Report ``i`` belongs to ``device_ids[i]``.  Returns the reports,
    the health row and the timings (``None`` if none were asked for).
    Any malformed body raises :class:`WorkerError`; no partial report
    list is ever returned.
    """
    view = memoryview(body).toreadonly()
    try:
        flags, count = _RESULT_HEADER.unpack_from(view)
        if flags & ~_RESULT_HAS_TIMINGS:
            raise WorkerError(f"result frame has unknown flags {flags:#x}")
        if count != len(device_ids):
            raise WorkerError(f"result frame holds {count} reports for "
                              f"{len(device_ids)} devices")
        offset = _RESULT_HEADER.size
        unpack = _REPORT.unpack_from
        reports: List[VerificationReport] = []
        for device_id in device_ids:
            (collection_time, code, present, measurements, missing,
             freshness, newest, anomaly_count, infected_count) = \
                unpack(view, offset)
            offset += _REPORT.size
            if code >= len(_STATUSES):
                raise WorkerError(f"unknown status code {code}")
            if present & ~(_REPORT_HAS_FRESHNESS | _REPORT_HAS_NEWEST |
                           _REPORT_WIDE_MISSING):
                raise WorkerError(f"unknown report flags {present:#x}")
            if present & _REPORT_WIDE_MISSING:
                (length,) = _BLOB_LENGTH.unpack_from(view, offset)
                offset += _BLOB_LENGTH.size
                missing = int.from_bytes(_cut(view, offset, length), "big")
                offset += length
            anomalies = []
            for _ in range(anomaly_count):
                (length,) = _BLOB_LENGTH.unpack_from(view, offset)
                offset += _BLOB_LENGTH.size
                anomalies.append(str(_cut(view, offset, length), "utf-8"))
                offset += length
            infected = []
            if infected_count:
                packed = struct.Struct(f">{infected_count}d")
                infected = list(packed.unpack_from(view, offset))
                offset += packed.size
            reports.append(VerificationReport(
                device_id, collection_time, _STATUSES[code],
                anomalies=anomalies,
                freshness=freshness if present & _REPORT_HAS_FRESHNESS
                else None,
                missing_intervals=missing,
                measurement_count=measurements,
                infected_timestamps=infected,
                newest_timestamp=newest if present & _REPORT_HAS_NEWEST
                else None))
        (length,) = _BLOB_LENGTH.unpack_from(view, offset)
        offset += _BLOB_LENGTH.size
        health_row = json.loads(str(_cut(view, offset, length), "utf-8"))
        if not isinstance(health_row, dict):
            raise WorkerError("result frame's health part is not an object")
        offset += length
        timings = None
        if flags & _RESULT_HAS_TIMINGS:
            timings = list(struct.unpack_from(f">{count}d", view, offset))
            offset += _TIMING.size * count
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise WorkerError(f"malformed result frame: {exc}") from None
    _check_consumed(view, offset)
    return reports, health_row, timings


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------

def _verify_task(judges: DeviceJudges, rid: int, body) -> bytes:
    """Judge one task's entries; the encoded result frame."""
    collection_time, flags, entries = decode_task(body)
    if flags & _TASK_CRASH:
        os._exit(CRASH_EXIT_CODE)
    perf = _time.perf_counter
    timings: Optional[List[float]] = \
        [] if flags & _TASK_WANT_TIMINGS else None
    health = FleetHealth()
    reports: List[VerificationReport] = []
    for enrollment, payload in entries:
        started = perf() if timings is not None else 0.0
        report = judges.verify_payload(enrollment, payload, collection_time)
        if timings is not None:
            timings.append(perf() - started)
        health.record(report)
        reports.append(report)
    return encode_result(rid, reports, health.to_row(), timings)


def worker_main(conn, config: Optional[ErasmusConfig],
                schedule_tolerance: float, allowed_missing: int) -> None:
    """The worker loop: one frame in, one frame out, in order.

    Runs in a spawned child process (``multiprocessing`` forwards the
    parent's ``sys.path``, so the src layout imports cleanly).  Every
    task brings the enrollments it is judged against; the only state
    kept across tasks is the per-device judge cache.
    """
    core = VerificationCore(config if config is not None else ErasmusConfig(),
                            schedule_tolerance=schedule_tolerance,
                            allowed_missing=allowed_missing)
    judges = DeviceJudges(core)
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return
        opcode, rid = _FRAME.unpack_from(frame)
        body = memoryview(frame)[_FRAME.size:]
        try:
            if opcode == OP_SHUTDOWN:
                conn.close()
                return
            if opcode == OP_EXIT:
                os._exit(CRASH_EXIT_CODE)
            if opcode == OP_TASK:
                conn.send_bytes(_verify_task(judges, rid, body))
            else:
                raise WorkerError(f"unknown opcode {opcode}")
        except SystemExit:
            raise
        except BaseException:
            try:
                conn.send_bytes(_FRAME.pack(OP_ERROR, rid) +
                                traceback.format_exc().encode("utf-8"))
            except (OSError, ValueError):
                return
