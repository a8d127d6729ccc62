"""Benchmark: regenerate Figure 6 (MSP430 measurement run-time)."""

import pytest

from repro.experiments import fig6_msp430_runtime
from tests.experiments.paper_checks import linearity_error


def test_fig6_series_regeneration(benchmark):
    rows = benchmark(fig6_msp430_runtime.run)
    at_10kb = {row["mac"]: row for row in rows if row["memory_kb"] == 10}
    for mac, expected in fig6_msp430_runtime.PAPER_RUNTIME_AT_10KB_S.items():
        assert at_10kb[mac]["erasmus_s"] == pytest.approx(expected, rel=0.05)
    # Linearity and ERASMUS ~= on-demand, as in the figure.
    for mac in ("hmac-sha256", "keyed-blake2s"):
        points = fig6_msp430_runtime.series(rows, mac, "erasmus")
        assert linearity_error(points) < 0.05
    # "Roughly equivalent" holds over the figure's visible range; at tiny
    # memory sizes the constant request-authentication cost dominates.
    for row in rows:
        if row["memory_kb"] >= 4:
            assert row["on_demand_s"] == pytest.approx(row["erasmus_s"],
                                                       rel=0.15)
        assert row["on_demand_s"] > row["erasmus_s"]


def test_fig6_actual_measurement_on_simulated_device(benchmark, key=b"k" * 16):
    """Also time one *functional* measurement (real MAC over 10 KB)."""
    from repro.smartplus import build_smartplus_architecture

    architecture = build_smartplus_architecture(key,
                                                application_size=10 * 1024)
    architecture.load_application(b"firmware" * 100)

    counter = {"time": 0.0}

    def measure():
        counter["time"] += 1.0
        architecture.advance_clock(counter["time"])
        return architecture.perform_measurement()

    output = benchmark(measure)
    assert output.memory_bytes == 10 * 1024
    assert output.duration == pytest.approx(5.0, rel=0.05)
