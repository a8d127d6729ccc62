"""Span tracing: derived ids, deterministic export, clock discipline."""

import json

from repro.obs import SpanTracer, derive_span_id


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_ids_are_derived_from_path_and_seed():
    assert derive_span_id("round:1/worker:0") == \
        derive_span_id("round:1/worker:0")
    assert derive_span_id("round:1/worker:0", seed=1) != \
        derive_span_id("round:1/worker:0", seed=2)
    assert derive_span_id("round:2/worker:0") != \
        derive_span_id("round:1/worker:0")
    assert len(derive_span_id("x")) == 16  # 8 bytes hex


def test_round_shard_device_hierarchy():
    clock = _FakeClock()
    tracer = SpanTracer(seed=3, clock=clock)
    with tracer.trace_round(1, devices=4) as round_span:
        clock.now = 1.0
        with tracer.trace_shard(round_span, 0) as shard_span:
            clock.now = 2.0
            tracer.record_device_verify(shard_span, "dev-0001", "healthy")
            clock.now = 3.0
    rows = tracer.export_rows()
    by_path = {row["path"]: row for row in rows}
    root = by_path["round:1/worker:0"]
    shard = by_path["round:1/worker:0/shard:0"]
    device = by_path["round:1/worker:0/shard:0/device:dev-0001"]
    assert root["parent_id"] is None
    assert shard["parent_id"] == root["span_id"]
    assert device["parent_id"] == shard["span_id"]
    assert root["kind"] == "round" and root["attrs"] == {"devices": 4}
    assert (root["start"], root["end"]) == (0.0, 3.0)
    assert (shard["start"], shard["end"]) == (1.0, 3.0)
    assert (device["start"], device["end"]) == (2.0, 2.0)
    assert device["attrs"] == {"device_id": "dev-0001",
                               "status": "healthy"}
    assert len(tracer.export_rows()) == 3


def test_export_is_sorted_and_order_independent():
    def record(tracer, shard_order):
        with tracer.trace_round(1) as round_span:
            for index in shard_order:
                with tracer.trace_shard(round_span, index) as shard_span:
                    tracer.record_device_verify(
                        shard_span, f"dev-{index:04d}", "healthy")

    forward = SpanTracer(seed=9)
    record(forward, [0, 1, 2])
    backward = SpanTracer(seed=9)
    record(backward, [2, 1, 0])
    assert forward.export_jsonl() == backward.export_jsonl()
    paths = [row["path"] for row in forward.export_rows()]
    assert paths == sorted(paths)


def test_export_jsonl_bytes_are_reproducible(tmp_path):
    def run():
        clock = _FakeClock()
        tracer = SpanTracer(seed=42, clock=clock)
        with tracer.trace_round(1) as round_span:
            with tracer.trace_shard(round_span, 0) as shard_span:
                clock.now = 0.5
                tracer.record_device_verify(shard_span, "dev-0000",
                                            "healthy")
        return tracer

    one, two = run(), run()
    assert one.export_jsonl() == two.export_jsonl()
    path = tmp_path / "trace.jsonl"
    count = one.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert count == len(lines) == 3
    for line in lines:
        json.loads(line)  # every row is valid JSON


def test_error_inside_span_is_recorded_and_span_finished():
    tracer = SpanTracer()
    try:
        with tracer.trace_round(1):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (row,) = tracer.export_rows()
    assert row["attrs"] == {"error": "RuntimeError"}


def test_bind_clock_and_clear():
    tracer = SpanTracer()
    assert tracer.now() == 0.0
    clock = _FakeClock()
    clock.now = 8.0
    tracer.bind_clock(clock)
    assert tracer.now() == 8.0
    with tracer.trace_round(1):
        pass
    assert len(tracer.export_rows()) == 1
    tracer.clear()
    assert tracer.export_rows() == []
