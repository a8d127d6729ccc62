"""Layer spans recorded from outside the program.

:class:`SpanRecorder` wraps the public entry points of each layer
(module functions and class methods of ``repro``) for the duration of a
traced pass and restores them afterwards; nothing under ``src/``
changes.  Every wrapped call records a span (name, start, end, parent,
thread) in memory; self time is the span's duration minus the time its
child spans cover.  Per-thread stacks keep nesting exact: the socket
transport serves provers on its own thread, whose spans have no parent
in the round.

Coroutine methods are wrapped per resumption: each step the event loop
runs inside the coroutine is one span, so a transport's busy time is
measured without the time it spends suspended while other shards work.

The hottest leaves (one MAC per measurement) are timed and counted but
not stored as individual spans, which keeps the written trace to a few
spans per device per round.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_time", "calls", "counters", "ident")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.ident = threading.get_ident()


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        #: ``(name, start, end, parent_index, thread)`` per stored span.
        self.spans: List[Optional[tuple]] = []
        #: Wrappers only record while this is set (the timed window).
        self.recording = False
        self._patches: List[tuple] = []

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> list:
        """Open a span on the calling thread; returns its frame."""
        state = self._state()
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, perf(), 0.0, index, state]
        state.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        end = perf()
        name, start, child, index, state = frame
        state.stack.pop()
        duration = end - start
        state.self_time[name] += duration - child
        state.calls[name] += 1
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end,
                             parent[3] if parent is not None else None,
                             state.ident)
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (bytes, requests, ...)."""
        if self.recording:
            self._state().counters[name] += amount

    # -- wrappers ------------------------------------------------------
    def span(self, name: str, fn: Callable,
             counter: Optional[Callable[..., None]] = None) -> Callable:
        """Wrap a function so each call is one span.

        ``counter(recorder, result, *args, **kwargs)`` may add counts.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            frame = recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if counter is not None:
                counter(recorder, result, *args, **kwargs)
            return result
        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot leaf: timed and counted, no stored span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - started
                state = recorder._state()
                state.self_time[name] += duration
                state.calls[name] += 1
                if state.stack:
                    state.stack[-1][2] += duration
        return wrapper

    def coroutine(self, name: str, fn: Callable,
                  counter: Optional[Callable[..., None]] = None
                  ) -> Callable:
        """Wrap a coroutine function: one span per resumption."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(recorder, None, *args, **kwargs)
            return _TimedAwaitable(recorder, name, fn(*args, **kwargs))
        return wrapper

    # -- installation ----------------------------------------------------
    def patch(self, owner, attribute: str, wrapper: Callable) -> None:
        """Replace ``owner.attribute``; :meth:`uninstall` puts it back."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points (see :func:`_layers`)."""
        _layers(self)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------
    def totals(self):
        """Summed self time, calls and counters over every thread."""
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counters: Dict[str, float] = defaultdict(float)
        with self._threads_lock:
            states = list(self._threads)
        for state in states:
            for name, value in state.self_time.items():
                self_time[name] += value
            for name, value in state.calls.items():
                calls[name] += value
            for name, value in state.counters.items():
                counters[name] += value
        return self_time, calls, counters

    def write(self, path: str) -> int:
        """Write every stored span as one JSON line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue  # a span still open when the pass ended
                name, start, end, parent, thread = span
                stream.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "thread": thread}))
                stream.write("\n")
                written += 1
        return written


class _TimedAwaitable:
    """Drive a coroutine, timing each resumption as one span."""

    __slots__ = ("recorder", "name", "coro")

    def __init__(self, recorder: SpanRecorder, name: str, coro) -> None:
        self.recorder = recorder
        self.name = name
        self.coro = coro

    def __await__(self):
        recorder, name, coro = self.recorder, self.name, self.coro
        value = None
        error: Optional[BaseException] = None
        while True:
            frame = recorder.enter(name) if recorder.recording else None
            try:
                if error is not None:
                    thrown, error = error, None
                    yielded = coro.throw(thrown)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    recorder.exit(frame)
            try:
                value = yield yielded
            except BaseException as exc:  # cancellation included
                error = exc
                value = None


# ----------------------------------------------------------------------
# The layer map: which public entry point feeds which layer metric
# ----------------------------------------------------------------------

def _count_len(name: str, argument: int):
    def counter(recorder, _result, *args, **_kwargs):
        recorder.count(name, len(args[argument]))
    return counter


def _count_result_len(name: str):
    def counter(recorder, result, *_args, **_kwargs):
        recorder.count(name, len(result))
    return counter


def _layers(recorder: SpanRecorder) -> None:
    from repro.core.measurement import Measurement
    from repro.core.verification import DeviceJudge, VerificationCore
    from repro.crypto.backend import AcceleratedBackend, CryptoBackend
    from repro.fleet import service, transport, workers
    from repro.fleet.sinks import FleetHealth, JsonlSink, SinkFanout
    from repro.obs.service import Observability, ObservedStore
    from repro.store import MemoryStore, SqliteStore

    patch, span, leaf = recorder.patch, recorder.span, recorder.leaf

    # Protocol: response decode on the verifier (payload is argument 0).
    patch(service, "decode_response",
          span("protocol.decode", service.decode_response,
               _count_len("protocol.response_bytes", 0)))
    # Simulated prover: request decode, buffer read, response encode.
    patch(transport, "serve_request",
          span("prover.serve", transport.serve_request))

    # Verification: verdict loop, schedule assessment, MAC inputs, MACs.
    patch(DeviceJudge, "verify_measurements",
          span("verify.judge", DeviceJudge.verify_measurements,
               _count_len("verify.measurements", 2)))
    patch(VerificationCore, "check_schedule",
          span("verify.schedule", VerificationCore.check_schedule))
    patch(Measurement, "authenticated_payload",
          leaf("verify.mac_input", Measurement.authenticated_payload))
    for backend in (CryptoBackend, AcceleratedBackend):
        original = backend.__dict__["mac_function"]

        def mac_function(self, mac_name, key, _original=original):
            return leaf("crypto.mac", _original(self, mac_name, key))
        patch(backend, "mac_function", mac_function)

    # Commit: health aggregate.
    patch(FleetHealth, "record", span("health.record", FleetHealth.record))
    patch(FleetHealth, "merge", span("health.merge", FleetHealth.merge))

    # Transports: synchronous and per-resumption asynchronous exchange.
    requests = _count_len("transport.requests", 1)
    for owner in (transport.Transport, transport.SimulatedNetworkTransport,
                  transport.SocketTransport):
        patch(owner, "exchange_many",
              span("transport.exchange", owner.__dict__["exchange_many"],
                   requests))
    for owner in (transport.SimulatedNetworkTransport,
                  transport.SocketTransport):
        patch(owner, "exchange_many_async",
              recorder.coroutine("transport.exchange",
                                 owner.__dict__["exchange_many_async"],
                                 requests))

    # Store backends (the innermost call, inside any lock or obs wrap).
    for backend in (MemoryStore, SqliteStore):
        for attribute, name in (("append_report", "store.append"),
                                ("save_enrollment", "store.enroll"),
                                ("checkpoint", "store.checkpoint"),
                                ("restore_state", "store.restore")):
            patch(backend, attribute,
                  span(name, backend.__dict__[attribute]))

    # Sinks.
    patch(JsonlSink, "emit", span("sink.emit", JsonlSink.emit))
    patch(SinkFanout, "flush", span("sink.flush", SinkFanout.flush))

    # Observability hooks; the store interposition's own overhead is
    # its self time around the nested store.* span.
    for attribute in ("report_committed", "record_device_verify",
                      "round_finished", "trace_round", "trace_shard",
                      "verify_observer"):
        patch(Observability, attribute,
              span("obs.hook", Observability.__dict__[attribute]))
    for attribute in ("append_report", "save_enrollment", "checkpoint",
                      "restore_state"):
        patch(ObservedStore, attribute,
              span("obs.hook", ObservedStore.__dict__[attribute]))

    # Worker processes: frame codec in the parent, task round trips,
    # commit of worker results.
    patch(workers, "encode_task",
          span("workers.codec", workers.encode_task,
               _count_result_len("workers.task_bytes")))
    patch(service, "decode_result",
          span("workers.codec", service.decode_result,
               _count_len("workers.task_bytes", 0)))
    submit_task = workers.WorkerPool.__dict__["submit_task"]

    @functools.wraps(submit_task)
    def timed_submit(self, *args, **kwargs):
        future = submit_task(self, *args, **kwargs)
        if recorder.recording:
            started = perf()

            def _done(_future) -> None:
                recorder.count("workers.task_s", perf() - started)
            future.add_done_callback(_done)
        return future
    patch(workers.WorkerPool, "submit_task", timed_submit)
    patch(service.FleetVerifier, "apply_worker_batch",
          span("workers.apply", service.FleetVerifier.apply_worker_batch))
