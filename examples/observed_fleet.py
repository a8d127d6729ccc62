#!/usr/bin/env python3
"""Live observability: one ``obs=`` object lights up a 1,000-device fleet.

Fleet health used to exist only *after* a round returned
(``FleetHealth`` / ``RoundStats`` handed back as values).  This example
threads one :class:`repro.obs.Observability` through
``Fleet.provision(obs=...)`` and shows the three faces of the
subsystem on a 1,000-device, 4-shard fleet:

1. **metrics over HTTP** — a Prometheus-style exposition scraped from
   the stdlib endpoint *while the round is still running*, per-shard
   verify-latency histograms included;
2. **streaming SLOs** — a partition window cuts ~30% of the fleet
   during the second round, and the coverage / lost-budget rules fire
   violation events mid-round, before ``collect_all`` returns;
3. **deterministic span traces** — the round → shard → device-verify
   span tree is exported as JSONL, byte-identical across two runs of
   the same seeded scenario;
4. **analysis reports** — the trace + the metrics registry feed
   :class:`repro.obs.ObsReport`, which writes the self-contained HTML
   flame/timeline view and the byte-stable JSON summary (per-round
   critical paths, shard skew, verify breakdowns, and per-shard
   verify-latency quantiles read from the registry).

Run with:  python examples/observed_fleet.py
The span trace lands in ``obs-trace.jsonl``, the report in
``obs-report.html`` / ``obs-summary.json`` (override with
``OBS_TRACE_PATH`` / ``OBS_REPORT_HTML`` / ``OBS_SUMMARY_JSON``).
"""

import json
import os
import urllib.request

from repro.campaign.faults import PartitionInjector
from repro.fleet import DeviceProfile, Fleet
from repro.fleet.sinks import ReportSink
from repro.fleet.transport import InProcessTransport
from repro.obs import CoverageRule, LostBudgetRule, Observability

FLEET_SIZE = 1000
SHARDS = 4
FIRMWARE = b"substation-firmware-v3" + bytes(200)
MASTER_SECRET = b"observed-fleet-master-secret"
TRACE_PATH = os.environ.get("OBS_TRACE_PATH", "obs-trace.jsonl")
REPORT_HTML = os.environ.get("OBS_REPORT_HTML", "obs-report.html")
SUMMARY_JSON = os.environ.get("OBS_SUMMARY_JSON", "obs-summary.json")

# The partition opens after the first (clean) round and cuts ~30% of
# the fleet for the second one.
PARTITION_WINDOW = (650.0, 1e9)
PARTITION_FRACTION = 0.3


class ScrapeMidRound(ReportSink):
    """Scrape the metrics endpoint from inside the round's sink fanout."""

    def __init__(self, url, at_report):
        self.url = url
        self.at_report = at_report
        self.seen = 0
        self.body = None

    def emit(self, report):
        self.seen += 1
        if self.seen == self.at_report:
            with urllib.request.urlopen(self.url, timeout=10) as response:
                self.body = response.read().decode("utf-8")


def run_scenario(serve=False):
    """The seeded two-round scenario; returns (obs, scraper, reports)."""
    violations = []
    obs = Observability(
        seed=17,
        slo_rules=[CoverageRule(0.95, expected_devices=FLEET_SIZE),
                   LostBudgetRule(50)],
        on_violation=[violations.append])
    profile = DeviceProfile.smartplus(firmware=FIRMWARE,
                                      application_size=512,
                                      measurement_interval=60.0,
                                      collection_interval=600.0,
                                      buffer_slots=16)

    def build_transport(engine):
        return PartitionInjector(InProcessTransport(engine),
                                 [PARTITION_WINDOW],
                                 fraction=PARTITION_FRACTION, seed=4)

    fleet = Fleet.provision(profile, FLEET_SIZE,
                            master_secret=MASTER_SECRET, shards=SHARDS,
                            transport=build_transport, obs=obs)
    scraper = None
    try:
        if serve:
            server = obs.serve()
            scraper = ScrapeMidRound(server.metrics_url, at_report=250)
            fleet.verifier.add_sink(scraper)

        # Round 1: clean.  The scrape happens mid-round, at report #250.
        fleet.run_until(600.0)
        fleet.collect_all(batch_size=125)

        # Round 2: partitioned.  SLO violations stream out mid-round.
        fleet.run_until(1200.0)
        reports = fleet.collect_all(batch_size=125)
    finally:
        obs.close()
        fleet.close()
    return obs, scraper, reports, violations


def main() -> None:
    print(f"provisioning {FLEET_SIZE} devices across {SHARDS} shards...")
    obs, scraper, reports, violations = run_scenario(serve=True)

    assert scraper is not None and scraper.body, \
        "the mid-round scrape never happened"
    exposition = scraper.body
    histogram_lines = [line for line in exposition.splitlines()
                       if line.startswith("repro_device_verify_seconds_count")]
    print(f"\nmid-round scrape: {len(exposition)} bytes of exposition, "
          f"per-shard verify histograms:")
    for line in histogram_lines:
        print(f"  {line}")
    assert "# TYPE repro_device_verify_seconds histogram" in exposition

    lost = sum(1 for report in reports if report.status.value == "no_data")
    print(f"\npartitioned round: {lost}/{FLEET_SIZE} devices unreachable")
    print(f"streaming SLO violations (fired before the round returned):")
    for violation in violations:
        print(f"  [{violation.rule}] after {violation.reports_seen} "
              f"reports: {violation.message}")
    assert violations, "the partition never tripped an SLO rule"
    assert all(v.streamed and v.reports_seen < FLEET_SIZE
               for v in violations)

    rows = obs.write_trace(TRACE_PATH)
    print(f"\nspan trace: {rows} spans written to {TRACE_PATH}")

    # Reproducibility: the same seeded scenario yields the same trace,
    # byte for byte (span ids, virtual-clock timestamps, statuses).
    print("re-running the scenario to check trace reproducibility...")
    twin, _scraper, _reports, _violations = run_scenario(serve=False)
    identical = twin.tracer.export_jsonl() == obs.tracer.export_jsonl()
    print(f"span traces byte-identical across runs: {identical}")
    if not identical:
        raise SystemExit("observed fleet trace diverged between runs")

    with open(TRACE_PATH, "r", encoding="utf-8") as stream:
        first = json.loads(stream.readline())
    print(f"first span: {first['path']} ({first['span_id']})")

    # Analysis report: flame/timeline HTML + byte-stable JSON summary.
    report = obs.report(title="observed-fleet")
    report.write(html_path=REPORT_HTML, json_path=SUMMARY_JSON)
    totals = report.summary["totals"]
    print(f"\nreport: {totals['rounds']} rounds, "
          f"{totals['device_verifies']} device verifies analyzed")
    for round_row in report.summary["rounds"]:
        chain = " -> ".join(link["path"]
                            for link in round_row["critical_path"])
        print(f"  round {round_row['round']}: "
              f"{round_row['duration']:.1f}s virtual, shard skew "
              f"{round_row['shard_skew']:.3f}s, critical path {chain}")
    print(f"flame report written to {REPORT_HTML}, summary to "
          f"{SUMMARY_JSON}")
    # The summary's metrics section is read from the registry: one
    # verify-latency row per shard, each with a median estimate.
    with open(SUMMARY_JSON, "r", encoding="utf-8") as stream:
        latency = json.load(stream)["metrics"]["verify_latency"]
    assert sorted(row["labels"]["shard"] for row in latency) == \
        [str(shard) for shard in range(SHARDS)], latency
    assert all(row["quantiles"]["p50"] is not None for row in latency)
    for row in latency:
        print(f"  shard {row['labels']['shard']}: {row['count']:.0f} "
              f"verifies, p50 {row['quantiles']['p50'] * 1e6:.1f} us")
    # The trace-derived summary is as reproducible as the trace itself
    # (the metrics section is wall-clock and excluded).
    from repro.obs.report import build_summary, summary_json
    ours = summary_json(build_summary(obs.tracer.export_rows(),
                                      title="observed-fleet"))
    theirs = summary_json(build_summary(twin.tracer.export_rows(),
                                        title="observed-fleet"))
    assert ours == theirs, \
        "trace summaries diverged between identical runs"
    print("trace-derived JSON summaries byte-identical across runs: True")


if __name__ == "__main__":
    main()
