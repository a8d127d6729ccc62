#!/usr/bin/env python3
"""Multi-process collection: 10,000 devices, 4 worker processes, sockets.

The single-process ceiling falls in two places at once:

* **transport** — requests and responses cross the kernel as real UDP
  datagrams on the loopback interface (``transport="socket"``), with a
  TCP fallback for responses too large for one datagram, instead of an
  in-process function call;
* **verification** — a ``FleetVerifier(..., shards=4,
  worker_mode="process")`` ships each partition's response batches to
  its spawned worker process over a compact binary pipe codec and
  merges the ``FleetHealth`` parts that come home.

The parent keeps all authoritative state (enrollments, store, sinks);
workers are stateless verification engines.  Provisioning is
deterministic, so the multi-process fleet's merged health is
*byte-identical* to a single-process twin's — checked at the end.

Run with:  python examples/multiprocess_collection.py [device-count]
"""

import gc
import json
import sys
import time

from repro.fleet import DeviceProfile, Fleet

FLEET_SIZE = 10_000
WORKERS = 4
INFECTED = ("dev-0042", "dev-2718", "dev-9001")
FIRMWARE = b"turbine-firmware-v8" + bytes(200)
MALWARE = b"persistent-implant!" + bytes(210)
MASTER_SECRET = b"factory-floor-master-secret"


def provision(count, shards=None, worker_mode="loop",
              transport="in-process") -> Fleet:
    """One deterministic fleet, measured up to the collection time."""
    profile = DeviceProfile.smartplus(firmware=FIRMWARE,
                                      application_size=512,
                                      measurement_interval=60.0,
                                      collection_interval=600.0,
                                      buffer_slots=16)
    fleet = Fleet.provision(profile, count, master_secret=MASTER_SECRET,
                            shards=shards, worker_mode=worker_mode,
                            transport=transport)
    fleet.run_until(300.0)
    for device_id in INFECTED:
        if count > int(device_id.rpartition("-")[2]):
            fleet.device(device_id).load_application(MALWARE)
    fleet.run_until(600.0)
    return fleet


def health_fingerprint(fleet: Fleet) -> bytes:
    return json.dumps(fleet.health.to_row(), sort_keys=True,
                      separators=(",", ":")).encode()


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else FLEET_SIZE
    expected_flagged = sorted(
        device_id for device_id in INFECTED
        if count > int(device_id.rpartition("-")[2]))

    print(f"provisioning two deterministic twins of {count} devices...")
    baseline_fleet = provision(count)
    process_fleet = provision(count, shards=WORKERS, worker_mode="process",
                              transport="socket")
    # Spawn the 4 workers before timing: the numbers below are
    # steady-state rounds, not process cold start.
    process_fleet.verifier.warm_up()

    gc.collect()
    started = time.perf_counter()
    baseline_reports = baseline_fleet.collect_all()
    baseline_wall = time.perf_counter() - started

    gc.collect()
    started = time.perf_counter()
    process_reports = process_fleet.collect_all()
    process_wall = time.perf_counter() - started

    print(f"\nasync single-process (in-process transport):")
    print(f"  {len(baseline_reports)} reports in {baseline_wall:.2f}s "
          f"({len(baseline_reports) / baseline_wall:,.0f} devices/second)")
    transport = process_fleet.transport
    print(f"{WORKERS} worker processes (socket transport):")
    print(f"  {len(process_reports)} reports in {process_wall:.2f}s "
          f"({len(process_reports) / process_wall:,.0f} devices/second)")
    print(f"  loopback datagrams answered over UDP, "
          f"{transport.tcp_fallbacks} oversized responses via TCP fallback")

    flagged = sorted(report.device_id for report in process_reports
                     if report.detected_infection())
    print(f"\ninfected mid-interval: {expected_flagged}")
    print(f"flagged by collection: {flagged}")
    print()
    print(process_fleet.health.summary())

    identical = health_fingerprint(baseline_fleet) == \
        health_fingerprint(process_fleet)
    print(f"\nmerged multi-process health byte-identical to "
          f"single-process twin: {identical}")
    baseline_fleet.close()
    process_fleet.close()
    if not identical or flagged != expected_flagged:
        raise SystemExit("multi-process collection diverged from baseline")


if __name__ == "__main__":
    main()
