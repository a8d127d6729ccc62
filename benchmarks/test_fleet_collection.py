"""Benchmark: fleet-collection throughput (devices/second, 1,000 devices).

Runs full fleet rounds — provision, self-measurement schedule,
``collect_all``, verification — through :mod:`repro.fleet` and records
the devices/second rates in the benchmark's ``extra_info`` so
successive scaling PRs have a fixed yardstick.

Two collection paths are compared on identical fleets:

* ``async`` — the pipelined single-verifier ``collect_all`` (awaitable
  transport seam plus the precompiled per-device verification path);
* ``sharded`` — a :class:`repro.fleet.FleetVerifier` with ``shards=4``
  draining the fleet as four concurrent partitions.

Both must collect, verify and report every device of the same
1,000-device fleet.
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


def test_async_and_sharded_collect_every_device(benchmark):
    rows = benchmark.pedantic(
        fleet_collection.run_concurrency_comparison,
        kwargs=dict(device_count=FLEET_SIZE, repeats=3),
        rounds=1, iterations=1)
    by_mode = {row["mode"]: row for row in rows}
    for mode, row in by_mode.items():
        benchmark.extra_info[f"{mode}_devices_per_second"] = \
            row["devices_per_second"]
        benchmark.extra_info[f"{mode}_collect_devices_per_second"] = \
            row["collect_devices_per_second"]
    assert all(row["reports"] == FLEET_SIZE for row in rows)
    assert all(row["healthy"] == FLEET_SIZE for row in rows)
    assert all(row["requests_sent"] == FLEET_SIZE for row in rows)
    assert all(row["responses_lost"] == 0 for row in rows)
    assert set(by_mode) == {"async", "sharded"}


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
