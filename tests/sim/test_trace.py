"""Tests for the trace recorder."""

from repro.sim import TraceRecorder


def test_record_and_filter_by_category():
    trace = TraceRecorder()
    trace.record(1.0, "measurement", device="a")
    trace.record(2.0, "collection", device="a")
    trace.record(3.0, "measurement", device="b")
    assert len(trace) == 3
    assert [event.time for event in trace
            if event.category == "measurement"] == [1.0, 3.0]


def test_last_returns_most_recent_of_category():
    trace = TraceRecorder()
    assert trace.last("measurement") is None
    trace.record(1.0, "measurement", index=1)
    trace.record(2.0, "measurement", index=2)
    assert trace.last("measurement").details["index"] == 2


def test_details_are_copied_into_event():
    trace = TraceRecorder()
    event = trace.record(1.0, "infection", device="dev1", dwell=30.0)
    assert event.details == {"device": "dev1", "dwell": 30.0}
    assert list(trace)[0] is event
