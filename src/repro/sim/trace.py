"""Trace recording for simulation runs.

A :class:`TraceRecorder` holds only what a caller records into it; the
engine and the provers record nothing on their own, so a long run's
heap does not grow with the number of simulated events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence: a time, a category and free-form details."""

    time: float
    category: str
    details: dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only, time-ordered list of :class:`TraceEvent` records."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, time: float, category: str, **details: Any) -> TraceEvent:
        """Append a trace event and return it."""
        event = TraceEvent(time=time, category=category, details=dict(details))
        self._events.append(event)
        return event

    def last(self, category: str) -> TraceEvent | None:
        """Return the most recent event of a category, if any."""
        for event in reversed(self._events):
            if event.category == category:
                return event
        return None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
