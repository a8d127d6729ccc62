"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import SimulationEngine, SimulationError


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(5.0, lambda: order.append("b"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(9.0, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == pytest.approx(9.0)


def test_simultaneous_events_fire_in_scheduling_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(3.0, lambda: order.append("first"))
    engine.schedule(3.0, lambda: order.append("second"))
    engine.run()
    assert order == ["first", "second"]


def test_run_until_stops_before_future_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule(2.0, lambda: fired.append(2.0))
    engine.schedule(8.0, lambda: fired.append(8.0))
    processed = engine.run(until=5.0)
    assert processed == 1
    assert fired == [2.0]
    assert engine.now == pytest.approx(5.0)
    engine.run()
    assert fired == [2.0, 8.0]


def test_schedule_in_uses_relative_delay():
    engine = SimulationEngine()
    engine.schedule(4.0, lambda: engine.schedule_in(3.0, lambda: None))
    engine.run()
    assert engine.now == pytest.approx(7.0)


def test_scheduling_in_the_past_rejected():
    engine = SimulationEngine()
    engine.schedule(10.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(5.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_in(-1.0, lambda: None)


def test_events_can_schedule_more_events():
    engine = SimulationEngine()
    times = []

    def chain() -> None:
        times.append(engine.now)
        if len(times) < 5:
            engine.schedule_in(1.0, chain)

    engine.schedule(1.0, chain)
    engine.run(until=100.0)
    assert times == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]


def test_step_fires_one_event_and_reports_idle():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(engine.now))
    assert engine.step() is True
    assert fired == [1.0]
    assert engine.events_processed == 1
    assert engine.step() is False


def test_events_processed_counter():
    engine = SimulationEngine()
    for index in range(3):
        engine.schedule(float(index + 1), lambda: None)
    engine.run()
    assert engine.events_processed == 3


def test_reentrant_run_rejected():
    engine = SimulationEngine()

    def nested() -> None:
        with pytest.raises(SimulationError, match="re-entrant"):
            engine.run()

    engine.schedule(1.0, nested)
    engine.run()
    assert engine.events_processed == 1
