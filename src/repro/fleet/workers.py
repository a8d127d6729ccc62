"""Process-pool shard workers: verification escapes the GIL.

A :class:`WorkerPool` spawns N worker processes, each running
:func:`repro.worker.process.worker_main`: a headless verification core
(the same :class:`~repro.core.verification.DeviceJudges` decode-and-judge
path the in-process shards use) fed over a ``multiprocessing`` pipe
with a compact binary task codec.  The worker side imports only
:mod:`repro.worker` and the verification core, never this package.
The parent keeps all authoritative state — enrollments, the
:class:`~repro.store.StateStore`, sinks, observability — and ships
each worker only what a task needs:

* an **enrollment sync** (keys + digest whitelists, JSON rows) when a
  worker (re)spawns or the parent's enrollment material changes;
* per-task **entries**: device id, the raw response payload (or its
  absence) and the device's current ``last_seen``, so workers stay
  stateless across rounds;
* back home: the per-device :class:`VerificationReport` rows plus one
  :class:`~repro.worker.health.FleetHealth` part covering the task,
  which the parent merges through the exact-Fraction accumulator — the
  merged aggregate is byte-identical to the single-process one.

Crash handling is part of the contract: a worker dying mid-task fails
the task's future with :class:`WorkerCrashed` (the parent counts the
batch's devices as lost), and the next :meth:`WorkerPool.ensure_worker`
respawns the slot.  :meth:`WorkerPool.inject_crash` arms a
deterministic ``os._exit`` on the slot's next task — the same wrap-only
fault-injection idiom as :class:`repro.campaign.faults.CrashOnceStore`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time as _time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.config import ErasmusConfig
from repro.statics.runtime import named_lock
from repro.worker.process import (
    TaskEntry,
    WorkerError,
    decode_reply,
    encode_task,
    enroll_frame,
    exit_frame,
    shutdown_frame,
    task_frame,
    worker_main,
)

if TYPE_CHECKING:  # pragma: no cover — runtime import would cycle
    from repro.obs.service import Observability


class WorkerCrashed(Exception):
    """A worker process died with tasks still in flight."""


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
                target=worker_main,
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
            handle.conn.send_bytes(exit_frame(next(self._rids)))
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
                    handle.conn.send_bytes(shutdown_frame(next(self._rids)))
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
        rid = next(self._rids)
        return self._submit(index, rid, enroll_frame(rid, rows))

    def submit_task(self, index: int, collection_time: float,
                    entries: Sequence[TaskEntry], *,
                    want_timings: bool = False) -> Future:
        """Dispatch one verification batch; resolves to its result body.

        The future's value is the raw result frame body — decode with
        :func:`repro.worker.process.decode_result` — so JSON parsing
        happens on the caller's schedule, not the reader thread's.
        """
        crash = self._crash_armed[index]
        if crash:
            self._crash_armed[index] = False
        rid = next(self._rids)
        future = self._submit(index, rid, task_frame(
            rid, encode_task(collection_time, entries,
                             want_timings=want_timings, crash=crash)))
        if self.obs.enabled:
            observe = self.obs.worker_task_seconds.labels(str(index)).observe
            started = _time.perf_counter()

            def _observe(done: Future) -> None:
                if not done.cancelled() and done.exception() is None:
                    observe(_time.perf_counter() - started)

            future.add_done_callback(_observe)
        return future

    def _submit(self, index: int, rid: int, frame: bytes) -> Future:
        """Send one request frame whose correlation id is ``rid``."""
        handle = self._handles[index]
        if handle is None or handle.dead.is_set():
            raise WorkerCrashed(
                f"worker {index} is not running (call ensure_worker first)")
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
            handle.conn.send_bytes(frame)
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
            rid, body, error = decode_reply(frame)
            with handle.lock:
                future = handle.pending.pop(rid, None)
                depth = len(handle.pending)
            if depth_gauge is not None:
                depth_gauge.set(depth)
            if future is None:
                continue
            if error is None:
                future.set_result(body)
            else:
                future.set_exception(WorkerError(f"worker {index} {error}"))
        handle.dead.set()
        with handle.lock:
            orphans = list(handle.pending.values())
            handle.pending.clear()
        if depth_gauge is not None:
            depth_gauge.set(0)
        for future in orphans:
            future.set_exception(WorkerCrashed(
                f"worker {index} died with tasks in flight"))
