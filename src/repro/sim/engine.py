"""The discrete-event simulation engine."""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid simulation operations (e.g. scheduling in the past)."""


class SimulationEngine:
    """Event-queue simulator with a virtual clock.

    Typical use::

        engine = SimulationEngine()
        engine.schedule(10.0, lambda: print("fired"))
        engine.run(until=100.0)

    The queue is a heap of ``(time, seq, callback)`` tuples; ``seq`` is
    an engine-local counter, so events due at the same time fire in
    the order they were scheduled.  Callbacks take no arguments and
    read the firing time from :attr:`now`; there is no event object.

    The engine also owns a :class:`TraceRecorder`.  It holds only what a
    caller records into it: the engine and the provers record nothing.
    """

    def __init__(self, trace: Optional[TraceRecorder] = None) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.trace = trace if trace is not None else TraceRecorder()
        self.events_processed = 0
        self._running = False

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        self.schedule(self.now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next pending event, if any."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Fire the next event; ``False`` when the queue is empty."""
        if not self._queue:
            return False
        self.now, _seq, callback = heapq.heappop(self._queue)
        self.events_processed += 1
        callback()
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Fire events in time order; return how many fired.

        With ``until``, stop before the first event due after it
        (events due exactly at ``until`` still fire) and then move the
        idle clock up to ``until``.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        processed = 0
        queue = self._queue
        try:
            while queue and (until is None or queue[0][0] <= until):
                self.step()
                processed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return processed
