"""Process-pool shard workers: verification escapes the GIL.

A :class:`WorkerPool` spawns N worker processes, each running
:func:`_worker_main`: a headless verification core (the same
:class:`~repro.fleet.service.FleetVerifier` fast path the in-process
shards use) fed over a ``multiprocessing`` pipe with a compact binary
task codec.  The parent keeps all authoritative state — enrollments,
the :class:`~repro.store.StateStore`, sinks, observability — and ships
each worker only what a task needs:

* an **enrollment sync** (keys + digest whitelists, JSON rows) when a
  worker (re)spawns or the parent's enrollment material changes;
* per-task **entries**: device id, the raw response payload (or its
  absence) and the device's current ``last_seen``, so workers stay
  stateless across rounds;
* back home: the per-device :class:`VerificationReport` rows plus one
  :class:`~repro.fleet.sinks.FleetHealth` part covering the task, which
  the parent merges through the exact-Fraction accumulator — the merged
  aggregate is byte-identical to the single-process one.

Crash handling is part of the contract: a worker dying mid-task fails
the task's future with :class:`WorkerCrashed` (the parent counts the
batch's devices as lost), and the next :meth:`WorkerPool.ensure_worker`
respawns the slot.  :meth:`WorkerPool.inject_crash` arms a
deterministic ``os._exit`` on the slot's next task — the same wrap-only
fault-injection idiom as :class:`repro.campaign.faults.CrashOnceStore`.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import struct
import threading
import time as _time
import traceback
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ErasmusConfig
from repro.statics.runtime import named_lock

if TYPE_CHECKING:  # pragma: no cover — runtime import would cycle
    from repro.obs.service import Observability

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


class WorkerCrashed(Exception):
    """A worker process died with tasks still in flight."""


class WorkerError(Exception):
    """A worker reported a Python error while processing a frame."""


#: One verification unit: ``(device_id, payload_or_None, last_seen)``.
TaskEntry = Tuple[str, Optional[bytes], Optional[float]]


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

def _worker_main(conn, config: Optional[ErasmusConfig],
                 schedule_tolerance: float, allowed_missing: int) -> None:
    """The worker loop: one frame in, one frame out, in order.

    Runs in a spawned child process (``multiprocessing`` forwards the
    parent's ``sys.path``, so the src layout imports cleanly).  All
    fleet imports happen here, not at module import time, so
    the parent-side pool never pays for (or cycles through) them.
    """
    from repro.core.verification import Enrollment
    from repro.fleet.service import FleetVerifier
    from repro.fleet.sinks import FleetHealth

    verifier: Optional[FleetVerifier] = None
    perf = _time.perf_counter
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
                if verifier is None:
                    # The mirror is scratch state: it only judges
                    # payloads (``_verify_payload``) and never journals,
                    # so it makes no call on its default store.
                    verifier = FleetVerifier(
                        config if config is not None else ErasmusConfig(),
                        schedule_tolerance=schedule_tolerance,
                        allowed_missing=allowed_missing)
                verifier._enrollments = {
                    str(row["device_id"]): Enrollment.from_row(row)
                    for row in json.loads(bytes(body))}
                verifier._judges.clear()
                conn.send_bytes(_FRAME.pack(OP_RESULT, rid))
            elif opcode == OP_TASK:
                if verifier is None:
                    raise WorkerError("task received before enrollment sync")
                collection_time, flags, entries = decode_task(body)
                if flags & _TASK_CRASH:
                    os._exit(CRASH_EXIT_CODE)
                want_timings = bool(flags & _TASK_WANT_TIMINGS)
                health = FleetHealth()
                rows: List[Dict[str, object]] = []
                timings: Optional[List[float]] = [] if want_timings else None
                for device_id, payload, last_seen in entries:
                    enrollment = verifier._enrollments[device_id]
                    if enrollment.last_seen != last_seen:
                        enrollment = Enrollment(
                            device_id=device_id, key=enrollment.key,
                            healthy_digests=enrollment.healthy_digests,
                            last_seen=last_seen)
                        verifier._enrollments[device_id] = enrollment
                    started = perf() if want_timings else 0.0
                    report = verifier._verify_payload(
                        device_id, payload, collection_time)
                    if timings is not None:
                        timings.append(perf() - started)
                    health.record(report)
                    rows.append(report.to_row())
                conn.send_bytes(_FRAME.pack(OP_RESULT, rid) +
                                encode_result(rows, health.to_row(),
                                              timings))
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


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

class _WorkerHandle:
    """Parent-side state for one live worker process."""

    __slots__ = ("process", "conn", "pending", "reader", "dead", "lock")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pending: Dict[int, Future] = {}
        self.reader: Optional[threading.Thread] = None
        self.dead = threading.Event()
        self.lock = named_lock("fleet.worker_handle")


class WorkerPool:
    """N spawned verification workers behind correlated-future pipes.

    One duplex pipe per worker; a parent-side reader thread per worker
    resolves futures by correlation id, so any number of tasks can be
    in flight per worker (they are processed in order).  All methods
    are safe to call from event-loop callbacks: futures are
    ``concurrent.futures.Future`` and awaitable via
    ``asyncio.wrap_future``.
    """

    def __init__(self, count: int,
                 config: Optional[ErasmusConfig] = None,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 obs: Optional["Observability"] = None) -> None:
        if count < 1:
            raise ValueError("a worker pool needs at least one worker")
        from repro.obs.service import NULL_OBSERVABILITY
        self.count = count
        self.config = config
        self.schedule_tolerance = schedule_tolerance
        self.allowed_missing = allowed_missing
        self.obs = obs if obs is not None else NULL_OBSERVABILITY
        self._context = multiprocessing.get_context("spawn")
        self._handles: List[Optional[_WorkerHandle]] = [None] * count
        self.generations = [0] * count
        self.restarts = [0] * count
        self._crash_armed = [False] * count
        self._rids = itertools.count(1)
        self._lock = named_lock("fleet.worker_pool")
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def ensure_worker(self, index: int) -> int:
        """Spawn (or respawn) the slot if needed; returns its generation.

        A slot whose process died — crash-injected or organic — counts
        one restart and one ``repro_worker_restarts_total`` tick when
        it comes back; the fresh generation tells callers to re-sync
        enrollments.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            handle = self._handles[index]
            if handle is not None and not handle.dead.is_set():
                return self.generations[index]
            respawn = handle is not None
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main,
                args=(child_conn, self.config, self.schedule_tolerance,
                      self.allowed_missing),
                name=f"repro-worker-{index}", daemon=True)
            process.start()
            child_conn.close()
            handle = _WorkerHandle(process, parent_conn)
            handle.reader = threading.Thread(
                target=self._drain, args=(index, handle),
                name=f"repro-worker-{index}-reader", daemon=True)
            handle.reader.start()
            self._handles[index] = handle
            self.generations[index] += 1
            if respawn:
                self.restarts[index] += 1
                if self.obs.enabled:
                    self.obs.worker_restarts_total.labels(str(index)).inc()
            return self.generations[index]

    # statics: ok(dead-public) — test seam: fault injection
    def inject_crash(self, index: int) -> None:
        """Arm a hard ``os._exit`` on the slot's next verification task.

        Deterministic mid-round crash injection: the doomed task's
        future (and any tasks queued behind it) fail with
        :class:`WorkerCrashed`, exactly as an organic crash would.
        """
        self._crash_armed[index] = True

    # statics: ok(dead-public) — test seam: fault injection
    def kill(self, index: int) -> None:
        """Hard-kill the slot *now* via an ``OP_EXIT`` frame.

        Unlike :meth:`inject_crash` (which waits for the next task),
        this crashes an idle worker immediately: in-flight futures fail
        with :class:`WorkerCrashed` and the next
        :meth:`ensure_worker` respawns the slot.  A dead or never
        spawned slot is a no-op.
        """
        handle = self._handles[index]
        if handle is None or handle.dead.is_set():
            return
        try:
            handle.conn.send_bytes(_FRAME.pack(OP_EXIT, next(self._rids)))
        except (OSError, ValueError):
            pass  # pipe already gone — the reader will reap it
        handle.process.join(timeout=5.0)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = [h for h in self._handles if h is not None]
        for handle in handles:
            if not handle.dead.is_set():
                try:
                    handle.conn.send_bytes(
                        _FRAME.pack(OP_SHUTDOWN, next(self._rids)))
                except (OSError, ValueError):
                    pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------
    def sync_enrollments(self, index: int,
                         rows: Sequence[Dict[str, object]]) -> Future:
        """Replace the slot's enrollment mirror; resolves on ack."""
        return self._submit(index, OP_ENROLL,
                            json.dumps(list(rows)).encode("utf-8"))

    def submit_task(self, index: int, collection_time: float,
                    entries: Sequence[TaskEntry], *,
                    want_timings: bool = False) -> Future:
        """Dispatch one verification batch; resolves to its result body.

        The future's value is the raw result frame body — decode with
        :func:`decode_result` — so JSON parsing happens on the caller's
        schedule, not the reader thread's.
        """
        crash = self._crash_armed[index]
        if crash:
            self._crash_armed[index] = False
        future = self._submit(index, OP_TASK,
                              encode_task(collection_time, entries,
                                          want_timings=want_timings,
                                          crash=crash))
        if self.obs.enabled:
            observe = self.obs.worker_task_seconds.labels(str(index)).observe
            started = _time.perf_counter()

            def _observe(done: Future) -> None:
                if not done.cancelled() and done.exception() is None:
                    observe(_time.perf_counter() - started)

            future.add_done_callback(_observe)
        return future

    def _submit(self, index: int, opcode: int, body: bytes) -> Future:
        handle = self._handles[index]
        if handle is None or handle.dead.is_set():
            raise WorkerCrashed(
                f"worker {index} is not running (call ensure_worker first)")
        rid = next(self._rids)
        future: Future = Future()
        # Already dispatched, so no longer cancellable: a caller that
        # stops waiting (a cancelled round) must not leave the reader
        # thread resolving a cancelled future, which would kill it.
        future.set_running_or_notify_cancel()
        with handle.lock:
            handle.pending[rid] = future
            depth = len(handle.pending)
        if self.obs.enabled:
            self.obs.worker_queue_depth.labels(str(index)).set(depth)
        try:
            handle.conn.send_bytes(_FRAME.pack(opcode, rid) + body)
        except (OSError, ValueError) as exc:
            with handle.lock:
                owned = handle.pending.pop(rid, None)
            # The reader may have orphaned and failed the future first
            # (the worker died while we were sending); fail it only if
            # it is still ours to fail.
            if owned is not None:
                owned.set_exception(WorkerCrashed(
                    f"worker {index} pipe is broken: {exc}"))
        return future

    # -- reader ---------------------------------------------------------
    def _drain(self, index: int, handle: _WorkerHandle) -> None:
        """Per-worker reader: resolve futures until the pipe closes."""
        obs_enabled = self.obs.enabled
        depth_gauge = self.obs.worker_queue_depth.labels(str(index)) \
            if obs_enabled else None
        while True:
            try:
                frame = handle.conn.recv_bytes()
            except (EOFError, OSError):
                break
            opcode, rid = _FRAME.unpack_from(frame)
            with handle.lock:
                future = handle.pending.pop(rid, None)
                depth = len(handle.pending)
            if depth_gauge is not None:
                depth_gauge.set(depth)
            if future is None:
                continue
            body = memoryview(frame)[_FRAME.size:]
            if opcode == OP_ERROR:
                future.set_exception(WorkerError(
                    f"worker {index} failed:\n{str(body, 'utf-8')}"))
            elif opcode == OP_RESULT:
                future.set_result(body)
            else:
                # A frame this parent cannot interpret means the codec
                # versions disagree; resolving it as a result would hand
                # the caller garbage bytes to decode.
                future.set_exception(WorkerError(
                    f"worker {index} sent unexpected opcode {opcode}"))
        handle.dead.set()
        with handle.lock:
            orphans = list(handle.pending.values())
            handle.pending.clear()
        if depth_gauge is not None:
            depth_gauge.set(0)
        for future in orphans:
            future.set_exception(WorkerCrashed(
                f"worker {index} died with tasks in flight"))
