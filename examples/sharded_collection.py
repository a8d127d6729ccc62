#!/usr/bin/env python3
"""Sharded collection: 10,000 devices drained as 4 concurrent partitions.

ERASMUS decouples measurement from collection, so nothing forces a
verifier to drain its fleet in lock-step batches.  This example runs
the same 10,000-device round twice:

1. **single verifier** — one ``FleetVerifier`` draining the whole
   fleet through the pipelined collection round (shards of devices in
   flight at once, each verified as soon as its exchange settles);
2. **sharded** — a ``FleetVerifier(..., shards=4)``: the same round,
   cut round-robin into 4 partitions that each run their own in-flight
   window, committing into one ``FleetHealth``.

Provisioning is deterministic (same profile, same master secret), so
the two fleets carry identical devices with identical measurement
histories — the printed wall-clock difference is purely the verifier
topology, and the sharded health is *byte-identical* to the single
verifier's.

Run with:  python examples/sharded_collection.py
"""

import gc
import json
import time

from repro.fleet import DeviceProfile, Fleet

FLEET_SIZE = 10_000
SHARDS = 4
INFECTED = ("dev-0042", "dev-2718", "dev-9001")
FIRMWARE = b"turbine-firmware-v7" + bytes(200)
MALWARE = b"persistent-implant!" + bytes(210)
MASTER_SECRET = b"factory-floor-master-secret"


def provision(shards=None) -> Fleet:
    """One deterministic 10k fleet, measured up to the collection time."""
    profile = DeviceProfile.smartplus(firmware=FIRMWARE,
                                      application_size=512,
                                      measurement_interval=60.0,
                                      collection_interval=600.0,
                                      buffer_slots=16)
    fleet = Fleet.provision(profile, FLEET_SIZE,
                            master_secret=MASTER_SECRET, shards=shards)
    fleet.run_until(300.0)
    for device_id in INFECTED:
        fleet.device(device_id).load_application(MALWARE)
    fleet.run_until(600.0)
    return fleet


def health_fingerprint(fleet: Fleet) -> bytes:
    return json.dumps(fleet.health.to_row(), sort_keys=True,
                      separators=(",", ":")).encode()


def main() -> None:
    print(f"provisioning two deterministic twins of {FLEET_SIZE} devices...")
    single_fleet = provision()
    sharded_fleet = provision(shards=SHARDS)

    # Sweep provisioning garbage out of the way so neither timed round
    # absorbs a multi-ten-ms gen-2 GC pause the other one skipped.
    gc.collect()
    started = time.perf_counter()
    single_reports = single_fleet.collect_all()
    single_wall = time.perf_counter() - started

    gc.collect()
    started = time.perf_counter()
    sharded_reports = sharded_fleet.collect_all()
    sharded_wall = time.perf_counter() - started

    print(f"\nsingle verifier : {len(single_reports)} reports in "
          f"{single_wall:.2f}s "
          f"({len(single_reports) / single_wall:,.0f} devices/second)")
    stats = sharded_reports.stats
    print(f"sharded         : {len(sharded_reports)} reports in "
          f"{sharded_wall:.2f}s "
          f"({len(sharded_reports) / sharded_wall:,.0f} devices/second, "
          f"{stats.shards} pipeline shard(s) over {SHARDS} partitions)")
    print(f"ratio           : {single_wall / sharded_wall:.2f}x")

    flagged = sorted(report.device_id for report in sharded_reports
                     if report.detected_infection())
    print(f"\ninfected mid-interval: {sorted(INFECTED)}")
    print(f"flagged by collection: {flagged}")
    print()
    print(sharded_fleet.health.summary())

    identical = health_fingerprint(single_fleet) == \
        health_fingerprint(sharded_fleet)
    print(f"\nsharded health byte-identical to single verifier: "
          f"{identical}")
    if not identical or set(flagged) != set(INFECTED):
        raise SystemExit("sharded collection diverged from the single "
                         "verifier")


if __name__ == "__main__":
    main()
