"""Benchmark: fleet-collection throughput (devices/second, 1,000 devices).

Runs full fleet rounds — provision, self-measurement schedule,
``collect_all``, verification — through :mod:`repro.fleet` and records
the devices/second rates in the benchmark's ``extra_info`` so
successive scaling PRs have a fixed yardstick.  The comparison of
collection paths (single verifier, sharded loop, worker processes) on
one 1,000-device fleet is the scaling ladder in
``benchmarks/test_fleet_scaling.py``.
"""

import pytest

from repro.experiments import fleet_collection

FLEET_SIZE = 1000


def test_fleet_round_throughput_1000_devices(benchmark):
    row = benchmark.pedantic(
        fleet_collection.run_round,
        args=("in-process", FLEET_SIZE),
        rounds=1, iterations=1)
    assert row["reports"] == FLEET_SIZE
    assert row["healthy"] == FLEET_SIZE
    benchmark.extra_info["devices_per_second"] = row["devices_per_second"]
    benchmark.extra_info["collect_devices_per_second"] = \
        row["collect_devices_per_second"]
    # A full 1,000-device round should comfortably beat one device/ms;
    # the bound is loose so CI machines of any speed pass it.
    assert row["devices_per_second"] > 50


@pytest.mark.parametrize("transport", ["simulated-network", "swarm-relay"])
def test_fleet_round_networked_transports(benchmark, transport):
    row = benchmark.pedantic(
        fleet_collection.run_round,
        args=(transport, 200),
        rounds=1, iterations=1)
    assert row["reports"] == 200
    assert row["healthy"] == 200
    # The simulated round-trip must have cost virtual time (packets
    # traversed real links) yet stay far below the measurement interval.
    assert 0 < row["sim_round_trip_s"] < 10.0
    assert row["stale_responses_rejected"] == 0
