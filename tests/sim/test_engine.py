"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Event, EventKind, SimulationEngine, SimulationError


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(5.0, lambda event: order.append("b"))
    engine.schedule(1.0, lambda event: order.append("a"))
    engine.schedule(9.0, lambda event: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == pytest.approx(9.0)


def test_simultaneous_events_fire_in_scheduling_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(3.0, lambda event: order.append("first"))
    engine.schedule(3.0, lambda event: order.append("second"))
    engine.run()
    assert order == ["first", "second"]


def test_run_until_stops_before_future_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule(2.0, lambda event: fired.append(2.0))
    engine.schedule(8.0, lambda event: fired.append(8.0))
    processed = engine.run(until=5.0)
    assert processed == 1
    assert fired == [2.0]
    assert engine.now == pytest.approx(5.0)
    engine.run()
    assert fired == [2.0, 8.0]


def test_schedule_in_uses_relative_delay():
    engine = SimulationEngine()
    engine.schedule(4.0, lambda event: engine.schedule_in(
        3.0, lambda inner: None))
    engine.run()
    assert engine.now == pytest.approx(7.0)


def test_scheduling_in_the_past_rejected():
    engine = SimulationEngine()
    engine.schedule(10.0, lambda event: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(5.0, lambda event: None)
    with pytest.raises(SimulationError):
        engine.schedule_in(-1.0, lambda event: None)


def test_cancelled_events_do_not_fire():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(3.0, lambda ev: fired.append("cancelled"))
    engine.schedule(4.0, lambda ev: fired.append("kept"))
    engine.cancel(event)
    engine.run()
    assert fired == ["kept"]


def test_events_can_schedule_more_events():
    engine = SimulationEngine()
    times = []

    def chain(event: Event) -> None:
        times.append(engine.now)
        if len(times) < 5:
            engine.schedule_in(1.0, chain, EventKind.TIMER)

    engine.schedule(1.0, chain, EventKind.TIMER)
    engine.run(until=100.0)
    assert times == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]


def test_max_events_limit():
    engine = SimulationEngine()
    for index in range(10):
        engine.schedule(float(index), lambda event: None)
    processed = engine.run(max_events=4)
    assert processed == 4
    assert engine.run() == 6


def test_step_returns_event_and_none_when_idle():
    engine = SimulationEngine()
    engine.schedule(1.0, lambda event: None, EventKind.COLLECTION)
    event = engine.step()
    assert event is not None
    assert event.kind is EventKind.COLLECTION
    assert engine.step() is None


def test_events_processed_counter():
    engine = SimulationEngine()
    for index in range(3):
        engine.schedule(float(index + 1), lambda event: None)
    engine.run()
    assert engine.events_processed == 3


def test_truncated_run_does_not_jump_clock_past_pending_events():
    """A max_events-capped drain must not strand queued events behind now."""
    engine = SimulationEngine()
    engine.schedule(5.0, lambda event: None)
    engine.schedule(10.0, lambda event: None)
    processed = engine.run(until=100.0, max_events=1)
    assert processed == 1
    assert engine.now == 5.0  # not 100.0: the t=10 event is still queued
    engine.schedule(50.0, lambda event: None)  # must not be "in the past"
    engine.run(until=100.0)
    assert engine.now == 100.0
