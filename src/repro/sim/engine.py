"""The discrete-event simulation engine."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventKind
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid simulation operations (e.g. scheduling in the past)."""


class SimulationEngine:
    """Event-queue simulator with a virtual clock.

    Typical use::

        engine = SimulationEngine()
        engine.schedule(10.0, lambda ev: print("fired"), EventKind.TIMER)
        engine.run(until=100.0)

    The engine also owns a :class:`TraceRecorder`.  It holds only what a
    caller records into it: the engine and the provers record nothing.
    """

    def __init__(self, trace: Optional[TraceRecorder] = None) -> None:
        self.now = 0.0
        self._queue: list[Event] = []
        self.trace = trace if trace is not None else TraceRecorder()
        self.events_processed = 0
        self._running = False

    def schedule(self, time: float, callback: Callable[[Event], None],
                 kind: EventKind = EventKind.GENERIC,
                 payload: Any = None) -> Event:
        """Schedule ``callback`` to fire at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}")
        event = Event.create(time, callback, kind, payload)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[Event], None],
                    kind: EventKind = EventKind.GENERIC,
                    payload: Any = None) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule(self.now + delay, callback, kind, payload)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next pending event, if any."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> Optional[Event]:
        """Process a single event and return it (or ``None`` if idle)."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            self.events_processed += 1
            if event.callback is not None:
                event.callback(event)
            return event
        return None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the virtual clock would pass this time.  Events
            scheduled exactly at ``until`` still fire.
        max_events:
            Safety limit on the number of events processed in this call.

        Returns the number of events processed in this call.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        processed = 0
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                processed += 1
            self._advance_to_horizon(until)
        finally:
            self._running = False
        return processed

    def _advance_to_horizon(self, until: Optional[float]) -> None:
        """Move the idle clock up to ``until`` once the drain got there.

        Only when no pending event remains at or before ``until``: if a
        ``max_events`` cap truncated the drain earlier, jumping the
        clock would strand queued events in the past — a later
        :meth:`step` would move time backwards, and scheduling between
        the stranded events would be falsely rejected.
        """
        if until is None or until <= self.now:
            return
        next_time = self.peek_time()
        if next_time is None or next_time > until:
            self.now = until
