"""The worker side of process-mode verification, and the pipe protocol.

A worker is fed over a ``multiprocessing`` pipe by the parent's
:class:`repro.fleet.workers.WorkerPool`.  Both ends frame their
messages with this module, so the protocol is defined once.  A frame
is ``opcode (1 byte) ‖ correlation id (8 bytes) ‖ body``:

* parent to worker: an enrollment sync (:func:`enroll_frame`), a task
  (:func:`task_frame` around an :func:`encode_task` body), a hard exit
  (:func:`exit_frame`, crash injection) or a clean shutdown
  (:func:`shutdown_frame`);
* worker to parent, one per request and in order: a result (empty for
  a sync, an :func:`encode_result` body for a task) or an error
  carrying the worker's traceback, split by :func:`decode_reply`.

A task carries each device's raw response payload (or its absence)
and current ``last_seen``, so workers keep no state across rounds
beyond the enrollment mirror.  :func:`worker_main` judges every entry
through one :class:`~repro.core.verification.DeviceJudges`, the same
decode-and-judge path as an inline round, and answers with report
rows plus one :class:`~repro.worker.health.FleetHealth` part.
"""

from __future__ import annotations

import json
import os
import struct
import time as _time
import traceback
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import ErasmusConfig
from repro.core.verification import DeviceJudges, Enrollment, \
    VerificationCore
from repro.worker.health import FleetHealth

_FRAME = struct.Struct(">BQ")          # opcode, correlation id
_TASK_HEADER = struct.Struct(">dBI")   # collection_time, flags, entry count
_ENTRY_HEADER = struct.Struct(">HB")   # device-id length, entry flags
_LAST_SEEN = struct.Struct(">d")
_PAYLOAD_LENGTH = struct.Struct(">I")
_RESULT_HEADER = struct.Struct(">BI")  # flags, report count
_BLOB_LENGTH = struct.Struct(">I")
_TIMING = struct.Struct(">d")

OP_ENROLL = 1        # parent -> worker: replace the enrollment mirror
OP_TASK = 2          # parent -> worker: verify one batch of payloads
OP_RESULT = 3        # worker -> parent: report rows + health part
OP_ERROR = 4         # worker -> parent: traceback text
OP_EXIT = 5          # parent -> worker: hard os._exit (crash injection)
OP_SHUTDOWN = 6      # parent -> worker: clean exit

_TASK_WANT_TIMINGS = 0x01
_TASK_CRASH = 0x02
_ENTRY_HAS_LAST_SEEN = 0x01
_ENTRY_HAS_PAYLOAD = 0x02
_RESULT_HAS_TIMINGS = 0x01

#: Exit code of a deliberately crashed worker (``inject_crash``).
CRASH_EXIT_CODE = 17


class WorkerError(Exception):
    """A worker reported a Python error while processing a frame."""


#: One verification unit: ``(device_id, payload_or_None, last_seen)``.
TaskEntry = Tuple[str, Optional[bytes], Optional[float]]


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def enroll_frame(rid: int, rows: Sequence[Mapping[str, object]]) -> bytes:
    """Parent side: replace the worker's enrollment mirror with ``rows``."""
    return _FRAME.pack(OP_ENROLL, rid) + \
        json.dumps(list(rows)).encode("utf-8")


def task_frame(rid: int, task: bytes) -> bytes:
    """Parent side: one :func:`encode_task` body to verify."""
    return _FRAME.pack(OP_TASK, rid) + task


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


# ----------------------------------------------------------------------
# Binary task codec
# ----------------------------------------------------------------------

def encode_task(collection_time: float, entries: Sequence[TaskEntry], *,
                want_timings: bool = False, crash: bool = False) -> bytes:
    """Serialize one verification task into its compact binary frame."""
    flags = (_TASK_WANT_TIMINGS if want_timings else 0) | \
        (_TASK_CRASH if crash else 0)
    parts: List[bytes] = [_TASK_HEADER.pack(collection_time, flags,
                                            len(entries))]
    for device_id, payload, last_seen in entries:
        encoded_id = device_id.encode("utf-8")
        entry_flags = (_ENTRY_HAS_LAST_SEEN if last_seen is not None else 0) \
            | (_ENTRY_HAS_PAYLOAD if payload is not None else 0)
        parts.append(_ENTRY_HEADER.pack(len(encoded_id), entry_flags))
        parts.append(encoded_id)
        if last_seen is not None:
            parts.append(_LAST_SEEN.pack(last_seen))
        if payload is not None:
            parts.append(_PAYLOAD_LENGTH.pack(len(payload)))
            parts.append(payload)
    return b"".join(parts)


def decode_task(frame) -> Tuple[float, int, List[TaskEntry]]:
    """Reverse :func:`encode_task`; payloads are zero-copy views."""
    collection_time, flags, count = _TASK_HEADER.unpack_from(frame)
    view = memoryview(frame).toreadonly()
    offset = _TASK_HEADER.size
    entries: List[TaskEntry] = []
    for _ in range(count):
        id_length, entry_flags = _ENTRY_HEADER.unpack_from(view, offset)
        offset += _ENTRY_HEADER.size
        device_id = str(view[offset:offset + id_length], "utf-8")
        offset += id_length
        last_seen = None
        if entry_flags & _ENTRY_HAS_LAST_SEEN:
            (last_seen,) = _LAST_SEEN.unpack_from(view, offset)
            offset += _LAST_SEEN.size
        payload = None
        if entry_flags & _ENTRY_HAS_PAYLOAD:
            (length,) = _PAYLOAD_LENGTH.unpack_from(view, offset)
            offset += _PAYLOAD_LENGTH.size
            payload = view[offset:offset + length]
            offset += length
        entries.append((device_id, payload, last_seen))
    return collection_time, flags, entries


def encode_result(report_rows: Sequence[Dict[str, object]],
                  health_row: Dict[str, object],
                  timings: Optional[Sequence[float]] = None) -> bytes:
    """Serialize one task's result: report rows, health part, timings."""
    flags = _RESULT_HAS_TIMINGS if timings is not None else 0
    parts: List[bytes] = [_RESULT_HEADER.pack(flags, len(report_rows))]
    for row in report_rows:
        blob = json.dumps(row, sort_keys=True).encode("utf-8")
        parts.append(_BLOB_LENGTH.pack(len(blob)))
        parts.append(blob)
    health_blob = json.dumps(health_row, sort_keys=True).encode("utf-8")
    parts.append(_BLOB_LENGTH.pack(len(health_blob)))
    parts.append(health_blob)
    if timings is not None:
        parts.extend(_TIMING.pack(timing) for timing in timings)
    return b"".join(parts)


def decode_result(body) -> Tuple[List[Dict[str, object]], Dict[str, object],
                                 Optional[List[float]]]:
    """Reverse :func:`encode_result`."""
    view = memoryview(body).toreadonly()
    flags, count = _RESULT_HEADER.unpack_from(view)
    offset = _RESULT_HEADER.size
    rows: List[Dict[str, object]] = []
    for _ in range(count + 1):
        (length,) = _BLOB_LENGTH.unpack_from(view, offset)
        offset += _BLOB_LENGTH.size
        rows.append(json.loads(bytes(view[offset:offset + length])))
        offset += length
    health_row = rows.pop()
    timings = None
    if flags & _RESULT_HAS_TIMINGS:
        timings = [_TIMING.unpack_from(view, offset + i * _TIMING.size)[0]
                   for i in range(count)]
    return rows, health_row, timings


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------

def _verify_task(judges: DeviceJudges, enrollments: Dict[str, Enrollment],
                 body) -> bytes:
    """Judge one task's entries; the encoded result body."""
    collection_time, flags, entries = decode_task(body)
    if flags & _TASK_CRASH:
        os._exit(CRASH_EXIT_CODE)
    perf = _time.perf_counter
    timings: Optional[List[float]] = \
        [] if flags & _TASK_WANT_TIMINGS else None
    health = FleetHealth()
    rows: List[Dict[str, object]] = []
    for device_id, payload, last_seen in entries:
        enrollment = enrollments[device_id]
        if enrollment.last_seen != last_seen:
            enrollment = enrollments[device_id] = \
                enrollment.advanced(last_seen)
        started = perf() if timings is not None else 0.0
        report = judges.verify_payload(enrollment, payload, collection_time)
        if timings is not None:
            timings.append(perf() - started)
        health.record(report)
        rows.append(report.to_row())
    return encode_result(rows, health.to_row(), timings)


def worker_main(conn, config: Optional[ErasmusConfig],
                schedule_tolerance: float, allowed_missing: int) -> None:
    """The worker loop: one frame in, one frame out, in order.

    Runs in a spawned child process (``multiprocessing`` forwards the
    parent's ``sys.path``, so the src layout imports cleanly).  The
    enrollment mirror is scratch state: it is replaced wholesale by
    each sync and only ever judges payloads.
    """
    core = VerificationCore(config if config is not None else ErasmusConfig(),
                            schedule_tolerance=schedule_tolerance,
                            allowed_missing=allowed_missing)
    judges = DeviceJudges(core)
    enrollments: Optional[Dict[str, Enrollment]] = None
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
            if opcode == OP_ENROLL:
                enrollments = {
                    str(row["device_id"]): Enrollment.from_row(row)
                    for row in json.loads(bytes(body))}
                judges = DeviceJudges(core)
                conn.send_bytes(_FRAME.pack(OP_RESULT, rid))
            elif opcode == OP_TASK:
                if enrollments is None:
                    raise WorkerError("task received before enrollment sync")
                conn.send_bytes(_FRAME.pack(OP_RESULT, rid) +
                                _verify_task(judges, enrollments, body))
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
