"""Tests for the experiment harnesses (one per paper table / figure)."""

import pytest

from repro.experiments import (
    availability,
    fig6_msp430_runtime,
    fig8_imx6_runtime,
    hwcost,
    irregular_intervals,
    qoa_detection,
    swarm_mobility,
    swarm_mobility_fleet,
    table1_codesize,
    table2_collection,
)
from tests.experiments.paper_checks import (
    erasmus_equals_ondemand,
    linearity_error,
    matches_paper,
)


class TestTable1:
    def test_matches_paper_exactly(self):
        rows = table1_codesize.run()
        assert matches_paper(rows, tolerance_kb=0.05)

    def test_erasmus_vs_ondemand_direction(self):
        rows = {row["mac"]: row for row in table1_codesize.run()}
        blake = rows["keyed-blake2s"]
        assert blake["smart+/erasmus"] < blake["smart+/on-demand"]
        assert blake["hydra/erasmus"] > blake["hydra/on-demand"]

    def test_format_table_contains_all_macs(self):
        text = table1_codesize.format_table(table1_codesize.run())
        for mac in ("hmac-sha1", "hmac-sha256", "keyed-blake2s"):
            assert mac in text


class TestTable2:
    def test_erasmus_total_matches_paper(self):
        rows = {row["operation"]: row for row in table2_collection.run()}
        assert rows["total"]["erasmus_ms"] == pytest.approx(0.015, abs=0.002)
        assert rows["total"]["erasmus+od_ms"] == pytest.approx(285.6, rel=0.02)
        assert rows["verify_request"]["erasmus_ms"] is None

    def test_ratio_exceeds_3000(self):
        assert table2_collection.collection_vs_measurement_ratio() >= 3000

    def test_format_table_renders(self):
        assert "ERASMUS+OD" in table2_collection.format_table(
            table2_collection.run())


class TestFig6:
    def test_endpoints_match_paper(self):
        rows = fig6_msp430_runtime.run(memory_sizes_kb=(10,))
        by_mac = {row["mac"]: row for row in rows}
        for mac, expected in fig6_msp430_runtime.PAPER_RUNTIME_AT_10KB_S.items():
            assert by_mac[mac]["erasmus_s"] == pytest.approx(expected,
                                                             rel=0.05)

    def test_curves_are_linear(self):
        rows = fig6_msp430_runtime.run()
        for mac in ("hmac-sha256", "keyed-blake2s"):
            for variant in ("erasmus", "on-demand"):
                points = fig6_msp430_runtime.series(rows, mac, variant)
                assert linearity_error(points) < 0.05

    def test_erasmus_and_ondemand_roughly_equivalent(self):
        rows = fig6_msp430_runtime.run(memory_sizes_kb=(10,))
        for row in rows:
            assert row["on_demand_s"] == pytest.approx(row["erasmus_s"],
                                                       rel=0.1)
            assert row["on_demand_s"] > row["erasmus_s"]


class TestFig8:
    def test_endpoints_match_paper(self):
        rows = fig8_imx6_runtime.run(memory_sizes_mb=(10,))
        by_mac = {row["mac"]: row for row in rows}
        for mac, expected in fig8_imx6_runtime.PAPER_RUNTIME_AT_10MB_S.items():
            assert by_mac[mac]["erasmus_s"] == pytest.approx(expected,
                                                             rel=0.05)

    def test_series_extraction(self):
        rows = fig8_imx6_runtime.run()
        points = fig8_imx6_runtime.series(rows, "keyed-blake2s", "erasmus")
        assert len(points) == len(fig8_imx6_runtime.DEFAULT_MEMORY_SIZES_MB)
        assert points == sorted(points)


class TestHwCost:
    def test_matches_paper(self):
        rows = {row["variant"]: row for row in hwcost.run()}
        assert rows["erasmus"]["registers"] == 655
        assert rows["erasmus"]["luts"] == 1969
        assert rows["unmodified"]["registers"] == 579
        assert rows["erasmus"]["register_overhead_pct"] == pytest.approx(
            13.1, abs=0.2)

    def test_erasmus_equals_ondemand(self):
        assert erasmus_equals_ondemand(hwcost.run())


class TestQoADetection:
    def test_erasmus_dominates_ondemand(self):
        rows = qoa_detection.run(horizon=3 * 24 * 3600.0,
                                 dwell_fractions=(0.25, 1.0, 2.0))
        for row in rows:
            assert row["erasmus_detection_rate"] >= \
                row["ondemand_detection_rate"]
        assert qoa_detection.detection_advantage(rows) > 0.2

    def test_detection_grows_with_dwell(self):
        rows = qoa_detection.run(horizon=3 * 24 * 3600.0,
                                 dwell_fractions=(0.1, 1.0, 4.0))
        rates = [row["erasmus_detection_rate"] for row in rows]
        assert rates[0] < rates[-1]


class TestIrregularIntervals:
    def test_regular_schedule_has_cliff_at_tm(self):
        rows = irregular_intervals.run(trials=400,
                                       dwell_fractions=(0.8, 1.2))
        by_fraction = {row["dwell_over_tm"]: row for row in rows}
        assert by_fraction[0.8]["regular_evasion"] == 1.0
        assert by_fraction[1.2]["regular_evasion"] == 0.0

    def test_irregular_matches_analytic(self):
        rows = irregular_intervals.run(trials=1500,
                                       dwell_fractions=(0.7, 1.0, 1.3))
        for row in rows:
            assert row["irregular_evasion"] == pytest.approx(
                row["analytic_irregular_evasion"], abs=0.08)


class TestAvailability:
    def test_lenient_scheduling_recovers_measurements(self):
        rows = availability.run(window_factors=(1.0, 2.0),
                                horizon=12 * 3600.0)
        strict, lenient = rows[0], rows[1]
        assert strict["loss_rate"] > lenient["loss_rate"]
        assert lenient["recovered"] > 0

    def test_collisions_independent_of_window(self):
        rows = availability.run(window_factors=(1.0, 3.0),
                                horizon=6 * 3600.0)
        assert rows[0]["collisions"] == rows[1]["collisions"]


class TestSwarmMobility:
    def test_erasmus_robust_to_mobility(self):
        rows = swarm_mobility.run(device_count=20, speeds=(0.0, 6.0),
                                  repetitions=2)
        static = swarm_mobility.coverage_by_protocol(rows, 0.0)
        fast = swarm_mobility.coverage_by_protocol(rows, 6.0)
        assert static["erasmus-collection"] == pytest.approx(1.0)
        assert fast["erasmus-collection"] >= 0.9
        assert fast["lisa-alpha"] < fast["erasmus-collection"]

    def test_duration_gap(self):
        rows = swarm_mobility.run(device_count=15, speeds=(0.0,),
                                  repetitions=1)
        durations = {row["protocol"]: row["duration_s"] for row in rows}
        assert durations["erasmus-collection"] < durations["seda"] / 10


class TestSwarmMobilityFleet:
    def test_real_provers_survive_mobility_on_demand_does_not(self):
        rows = swarm_mobility_fleet.run(device_count=24, speeds=(0.0, 6.0),
                                        rounds=2)
        static = swarm_mobility_fleet.coverage_by_protocol(rows, 0.0)
        mobile = swarm_mobility_fleet.coverage_by_protocol(rows, 6.0)
        static_connected = swarm_mobility_fleet.connected_coverage_at(rows,
                                                                      0.0)
        # Speed 0: coverage is exactly the gateway's static component.
        assert static["erasmus-fleet"] == pytest.approx(static_connected)
        # Mobility: the fleet collection holds, the cost-model on-demand
        # protocols drop.
        assert mobile["erasmus-fleet"] >= static_connected - 0.1
        assert mobile["seda"] < mobile["erasmus-fleet"]
        assert mobile["lisa-alpha"] < static["lisa-alpha"]

    def test_fleet_round_finishes_in_network_time(self):
        rows = swarm_mobility_fleet.run(device_count=16, speeds=(6.0,),
                                        rounds=1)
        durations = {row["protocol"]: row["duration_s"] for row in rows}
        assert durations["erasmus-fleet"] < durations["seda"] / 10

    def test_cost_model_rows_are_optional(self):
        rows = swarm_mobility_fleet.run(device_count=10, speeds=(0.0,),
                                        rounds=1, include_cost_model=False)
        assert [row["protocol"] for row in rows] == ["erasmus-fleet"]


def test_all_format_tables_render():
    assert "Figure 6" in fig6_msp430_runtime.format_table(
        fig6_msp430_runtime.run(memory_sizes_kb=(1, 2)))
    assert "Figure 8" in fig8_imx6_runtime.format_table(
        fig8_imx6_runtime.run(memory_sizes_mb=(1,)))
    assert "Hardware" in hwcost.format_table(hwcost.run())
    assert "evasion" in irregular_intervals.format_table(
        irregular_intervals.run(trials=50, dwell_fractions=(0.5,)))
    assert "lenient" in availability.format_table(
        availability.run(window_factors=(1.0,), horizon=3600.0))
    assert "swarm" in swarm_mobility.format_table(
        swarm_mobility.run(device_count=8, speeds=(0.0,), repetitions=1))
    assert "real provers" in swarm_mobility_fleet.format_table(
        swarm_mobility_fleet.run(device_count=8, speeds=(0.0,), rounds=1))
    assert "ERASMUS" in qoa_detection.format_table(
        qoa_detection.run(horizon=24 * 3600.0, dwell_fractions=(1.0,)))
