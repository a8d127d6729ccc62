"""Span tracing for collection rounds — deterministic and reproducible.

A collection round is traced as a small tree::

    round:3/worker:0                     (one span per round per worker)
      round:3/worker:0/shard:1           (one span per in-flight shard)
        round:3/worker:0/shard:1/device:dev-0261   (one per verify)

Span identifiers are *derived*, not drawn: each span's id is a keyed
BLAKE2s digest of its path, keyed by the tracer seed, so the same
(round, shard, device) coordinates always produce the same id — and a
whole trace exported twice from identically-seeded runs is
byte-identical.  That property is what lets perf PRs diff traces
across commits instead of eyeballing them.

To keep the bytes reproducible, spans are stamped with the *virtual*
clock (the simulation engine's ``now``), never the wall clock: wall
durations are machine noise and belong in the metrics histograms, not
the trace.  Export sorts spans by path, so the arrival order of
concurrently-finishing shards (or sharded workers on real threads)
cannot leak into the artifact either.

The per-device hot path is deliberately cheap: recording a device
verify appends one tuple; the span row — id derivation included — is
materialized only at export time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.statics.runtime import named_lock

#: Hex characters in a derived span id (8 bytes of keyed BLAKE2s).
SPAN_ID_BYTES = 8


def derive_span_id(path: str, seed: int = 0) -> str:
    """The deterministic id of the span at ``path`` under one seed."""
    key = seed.to_bytes(8, "big", signed=True)
    return hashlib.blake2s(path.encode("utf-8"), digest_size=SPAN_ID_BYTES,
                           key=key).hexdigest()


def derive_child_seed(seed: int, label: str) -> int:
    """A deterministic sub-seed forked from ``seed`` for one ``label``.

    Used for per-cell campaign tracers: every cell gets its own tracer
    (so concurrent cells cannot interleave in one span list) whose
    seed is a pure function of the parent seed and the cell label —
    same campaign, same per-cell traces, byte for byte.  The BLAKE2s
    keying mirrors :func:`derive_span_id`, and the result stays within
    the signed 64-bit range ``to_bytes`` accepts.
    """
    key = seed.to_bytes(8, "big", signed=True)
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8,
                             key=key).digest()
    return int.from_bytes(digest, "big", signed=True)


class Span:
    """One open span: a path, virtual start/end stamps, and attributes.

    Built through :class:`SpanTracer`'s context managers rather than
    directly; ``attrs`` may be extended while the span is open (shard
    spans record their response counts this way).
    """

    __slots__ = ("kind", "path", "start", "end", "attrs")

    def __init__(self, kind: str, path: str, start: float,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind
        self.path = path
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}


def _parent_path(path: str) -> Optional[str]:
    head, sep, _tail = path.rpartition("/")
    return head if sep else None


class SpanTracer:
    """Collects one deployment's spans; exports deterministic JSONL.

    ``clock`` supplies the virtual timestamps (usually the simulation
    engine's ``now``); without one, spans are stamped 0.0 — still
    deterministic, just flat.  The tracer is thread-safe by
    construction: finished spans and device rows are appended to lists
    (atomic under the GIL) and never mutated afterwards.
    """

    def __init__(self, seed: int = 0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.seed = seed
        self._clock = clock
        #: Finished round/shard spans, in completion order.
        self.spans: List[Span] = []
        #: Device verifies as lean tuples:
        #: (shard_path, device_id, virtual_time, status).
        self._device_rows: List[Tuple[str, str, float, str]] = []
        self._lock = named_lock("obs.tracer")

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach (or replace) the virtual clock spans are stamped with."""
        self._clock = clock

    def now(self) -> float:
        """The current virtual timestamp (0.0 without a clock)."""
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def trace_round(self, round_index: int, worker: str = "0",
                    **attrs: object) -> "_SpanContext":
        """Context manager for one collection round on one worker."""
        path = f"round:{round_index}/worker:{worker}"
        return _SpanContext(self, Span("round", path, self.now(),
                                       dict(attrs)))

    def trace_shard(self, round_span: Span, shard_index: int,
                    **attrs: object) -> "_SpanContext":
        """Context manager for one shard of an open round span."""
        path = f"{round_span.path}/shard:{shard_index}"
        return _SpanContext(self, Span("shard", path, self.now(),
                                       dict(attrs)))

    def record_device_verify(self, shard_span: Span, device_id: str,
                             status: str) -> None:
        """Record one device's verify under an open shard span (cheap)."""
        self._device_rows.append(
            (shard_span.path, device_id, self.now(), status))

    def _finish(self, span: Span) -> None:
        span.end = self.now()
        self.spans.append(span)

    def clear(self) -> None:
        """Drop every recorded span (a fresh deployment on one tracer)."""
        with self._lock:
            self.spans = []
            self._device_rows = []

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _iter_rows(self) -> Iterator[Dict[str, object]]:
        spans = list(self.spans)
        device_rows = list(self._device_rows)
        rows: List[Tuple[str, Dict[str, object]]] = []
        for span in spans:
            rows.append((span.path, {
                "path": span.path,
                "kind": span.kind,
                "span_id": derive_span_id(span.path, self.seed),
                "parent_id": self._parent_id(span.path),
                "start": span.start,
                "end": span.end,
                **({"attrs": dict(sorted(span.attrs.items()))}
                   if span.attrs else {}),
            }))
        for shard_path, device_id, time, status in device_rows:
            path = f"{shard_path}/device:{device_id}"
            rows.append((path, {
                "path": path,
                "kind": "device_verify",
                "span_id": derive_span_id(path, self.seed),
                "parent_id": derive_span_id(shard_path, self.seed),
                "start": time,
                "end": time,
                "attrs": {"device_id": device_id, "status": status},
            }))
        rows.sort(key=lambda item: item[0])
        for _path, row in rows:
            yield row

    def _parent_id(self, path: str) -> Optional[str]:
        parent = _parent_path(path)
        # A round span's path carries two segments (round + worker), so
        # a single-segment "parent" is not a real span: round spans are
        # roots.
        if parent is None or "/" not in parent:
            return None
        return derive_span_id(parent, self.seed)

    def export_rows(self) -> List[Dict[str, object]]:
        """Every finished span as a JSON-friendly row, sorted by path."""
        return list(self._iter_rows())

    def export_jsonl(self) -> str:
        """The whole trace as JSONL text (deterministic bytes)."""
        return "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in self._iter_rows())

    def write_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the number of rows."""
        text = self.export_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text.count("\n")


class _SpanContext:
    """Context manager that finishes its span on exit (even on error)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: SpanTracer, span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._tracer._finish(self.span)
        return False
