"""Benchmark: regenerate the Section 4.1 hardware-cost comparison."""

import pytest

from repro.experiments import hwcost
from tests.experiments.paper_checks import erasmus_equals_ondemand


def test_hwcost_regeneration(benchmark):
    rows = benchmark(hwcost.run)
    by_variant = {row["variant"]: row for row in rows}
    assert by_variant["erasmus"]["registers"] == 655
    assert by_variant["erasmus"]["luts"] == 1969
    assert by_variant["unmodified"]["registers"] == 579
    assert by_variant["unmodified"]["luts"] == 1731
    assert by_variant["erasmus"]["register_overhead_pct"] == pytest.approx(
        13.0, abs=0.5)
    assert by_variant["erasmus"]["lut_overhead_pct"] == pytest.approx(
        14.0, abs=0.5)
    assert erasmus_equals_ondemand(rows)
