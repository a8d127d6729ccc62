"""Benchmark: report generation on the 1k-device trace.

Synthesizes the 1k-device, 4-shard, 2-round span trace (plus a
matching metrics registry) once in setup, then times the full
analysis — tree reconstruction, critical paths, skew, the registry's
verify-latency quantiles, JSON summary and HTML flame rendering.  CI
exports the pytest-benchmark JSON as ``obs-report.json``; the hard gate
keeps the analysis layer orders of magnitude cheaper than the round
it analyzes (a 1k-device round takes seconds; its report must take a
fraction of one).
"""

from tests.obs import trace_harness as obs_report

DEVICES = 1000
SHARDS = 4
ROUNDS = 2

#: Hard ceiling (seconds) on generating the full report for the
#: 1k-device trace.  The harness runs in ~0.1 s on a laptop; 5 s
#: leaves shared-CI headroom while still catching an accidentally
#: quadratic tree pass.
MAX_REPORT_SECONDS = 5.0


def test_obs_report_generation(benchmark):
    trace = obs_report.build_trace(devices=DEVICES, rounds=ROUNDS,
                                   shards=SHARDS)
    registry = obs_report.build_registry(devices=DEVICES, shards=SHARDS)
    row = benchmark.pedantic(
        obs_report.run_report,
        kwargs={"devices": DEVICES, "rounds": ROUNDS, "shards": SHARDS,
                "trace": trace, "registry": registry},
        rounds=3, iterations=1)
    assert row["summary_rounds"] == ROUNDS
    assert row["summary_verifies"] == DEVICES * ROUNDS
    benchmark.extra_info["trace_spans"] = row["trace_spans"]
    benchmark.extra_info["spans_per_second"] = row["spans_per_second"]
    benchmark.extra_info["summary_s"] = row["summary_s"]
    benchmark.extra_info["html_s"] = row["html_s"]
    benchmark.extra_info["json_bytes"] = row["json_bytes"]
    benchmark.extra_info["html_bytes"] = row["html_bytes"]
    assert row["total_s"] < MAX_REPORT_SECONDS, (
        f"report generation took {row['total_s']:.2f}s on the "
        f"{DEVICES}-device trace (gate: {MAX_REPORT_SECONDS}s)")
