"""Synthetic span traces for the obs analysis layer, and its timing.

This harness characterizes :mod:`repro.obs.report` itself: how long
it takes to turn a 1k-device span trace (plus a matching metrics
registry) into the JSON summary and the self-contained HTML flame view.  It backs the
``benchmarks/test_obs_report.py`` gate, so the analysis layer cannot
quietly become slower than the rounds it analyzes.

The input trace is *synthesized* straight through
:class:`~repro.obs.tracing.SpanTracer` on a scripted virtual clock —
no fleet is provisioned, so the benchmark times the analysis, not the
simulation.  The synthetic shape mirrors a real sharded round
(round span per worker, shard spans with ``devices``/``received``/
``lost`` attrs, one device-verify row per device) and is a pure
function of its arguments, so rows stay comparable commit to commit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import ObsReport
from repro.obs.tracing import SpanTracer

#: Verify statuses cycled across synthetic devices (heavily healthy,
#: like a real fleet).
_STATUS_CYCLE = ("healthy",) * 17 + ("infected",) * 2 + ("no_data",)


class _ScriptedClock:
    """A manually advanced virtual clock for synthesizing traces."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now

    def __call__(self) -> float:
        return self.now


def build_trace(devices: int = 1000, rounds: int = 2, shards: int = 4,
                seed: int = 17) -> List[Dict[str, object]]:
    """Synthesize a sharded fleet trace: ``rounds`` rounds over
    ``devices`` devices split across ``shards`` shard workers."""
    clock = _ScriptedClock()
    tracer = SpanTracer(seed=seed, clock=clock)
    per_shard = max(devices // shards, 1)
    for round_index in range(rounds):
        clock.advance(600.0)
        for worker in range(shards):
            with tracer.trace_round(round_index,
                                    worker=str(worker)) as round_span:
                first = worker * per_shard
                last = devices if worker == shards - 1 \
                    else first + per_shard
                with tracer.trace_shard(round_span, worker,
                                        devices=last - first) as shard:
                    lost = 0
                    for index in range(first, last):
                        clock.advance(0.0001 * (1 + worker))
                        status = _STATUS_CYCLE[index % len(_STATUS_CYCLE)]
                        if status == "no_data":
                            lost += 1
                        tracer.record_device_verify(
                            shard, f"dev-{index:04d}", status)
                    shard.attrs["received"] = (last - first) - lost
                    shard.attrs["lost"] = lost
    return tracer.export_rows()


def build_registry(devices: int = 1000, shards: int = 4,
                   seed: int = 17) -> MetricsRegistry:
    """A matching synthetic registry: per-shard verify histograms."""
    registry = MetricsRegistry()
    verify = registry.histogram(
        "repro_device_verify_seconds",
        "Per-device verification latency, by shard worker.",
        labels=("shard",))
    rounds = registry.counter("repro_rounds_total",
                              "Collection rounds completed.")
    rounds.inc(2)
    for index in range(devices):
        worker = index % shards
        # A deterministic latency spread across three decades.
        latency = 0.00005 * (1 + (index * 7 + seed) % 100)
        verify.labels(str(worker)).observe(latency)
    return registry


def run_report(devices: int = 1000, rounds: int = 2, shards: int = 4,
               seed: int = 17,
               trace: Optional[List[Dict[str, object]]] = None,
               registry: Optional[MetricsRegistry] = None
               ) -> Dict[str, object]:
    """Generate the full report once; returns a timing/size row.

    ``trace``/``registry`` let the benchmark synthesize inputs once in
    setup and time only the analysis.
    """
    if trace is None:
        trace = build_trace(devices=devices, rounds=rounds,
                            shards=shards, seed=seed)
    if registry is None:
        registry = build_registry(devices=devices, shards=shards, seed=seed)
    started = time.perf_counter()
    report = ObsReport(trace, registry=registry, title="bench")
    summary_s = time.perf_counter() - started
    json_text = report.to_json()
    html_started = time.perf_counter()
    html_text = report.to_html()
    html_s = time.perf_counter() - html_started
    total = time.perf_counter() - started
    return {
        "devices": devices,
        "rounds": rounds,
        "shards": shards,
        "trace_spans": len(trace),
        "summary_s": summary_s,
        "html_s": html_s,
        "total_s": total,
        "spans_per_second": len(trace) / total if total > 0 else 0.0,
        "json_bytes": len(json_text),
        "html_bytes": len(html_text),
        "summary_rounds": report.summary["totals"]["rounds"],
        "summary_verifies": report.summary["totals"]["device_verifies"],
    }
