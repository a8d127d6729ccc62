"""End-to-end observability: one ``obs=`` lights up the whole stack.

The acceptance criteria of the obs subsystem live here:

* a live 1k-device *sharded* collection round is scraped over HTTP
  mid-round, and the exposition carries per-shard verify-latency
  histograms;
* a :class:`~repro.campaign.faults.PartitionInjector`-induced SLO
  violation fires as a streaming event *before* the round returns;
* span traces from two identically-seeded runs are byte-identical.
"""

import urllib.request

from repro.campaign.faults import PartitionInjector
from repro.fleet import Fleet, MemorySink
from repro.fleet.sinks import ReportSink
from repro.fleet.transport import InProcessTransport
from repro.obs import (
    NULL_OBSERVABILITY,
    CoverageRule,
    LostBudgetRule,
    Observability,
    ObservedStore,
)
from tests.fleet.helpers import small_profile

FIRMWARE = b"\x42" * 64


def provision(count, obs=None, shards=None, transport="in-process",
              transport_options=None):
    return Fleet.provision(small_profile(FIRMWARE), count,
                           master_secret=b"obs-tests", transport=transport,
                           transport_options=transport_options,
                           shards=shards, obs=obs)


class _ScrapeMidRound(ReportSink):
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


def test_thousand_device_sharded_round_is_scrapeable_mid_round():
    obs = Observability(seed=5)
    fleet = provision(1000, obs=obs, shards=4)
    server = obs.serve()
    scraper = _ScrapeMidRound(server.metrics_url, at_report=250)
    fleet.verifier.add_sink(scraper)
    try:
        fleet.run_until(60.0)
        reports = fleet.collect_all(batch_size=125)
    finally:
        obs.close()
        fleet.close()
    assert len(reports) == 1000
    body = scraper.body
    assert body, "the mid-round scrape never happened"
    # The scrape is a genuine Prometheus exposition with per-shard
    # verify-latency histograms — every shard worker had verified its
    # slice by the time the fanout streamed report #250.
    assert "# TYPE repro_device_verify_seconds histogram" in body
    for shard in range(4):
        marker = f'repro_device_verify_seconds_count{{shard="{shard}"}} 250'
        assert marker in body
    assert "repro_reports_total" in body
    # After the round: fleet-wide totals landed.
    text = obs.registry.render()
    assert "repro_rounds_total 1" in text
    assert "repro_requests_sent_total 1000" in text
    assert obs.reports_total.value("healthy") == 1000
    assert obs.devices_enrolled.value() == 1000
    # Store instrumentation rode along (journal + checkpoint).
    assert obs.store_ops.value("append_report") == 1000
    assert obs.store_ops.value("checkpoint") >= 1
    # The trace covers every layer of the round.
    kinds = {row["kind"] for row in obs.tracer.export_rows()}
    assert kinds == {"round", "shard", "device_verify"}


def test_partition_slo_violation_fires_before_the_round_returns():
    in_round = False
    fired_mid_round = []

    def on_violation(violation):
        fired_mid_round.append((in_round, violation))

    obs = Observability(
        slo_rules=[LostBudgetRule(2), CoverageRule(0.95,
                                                   expected_devices=60)],
        on_violation=[on_violation])

    def build(engine):
        return PartitionInjector(InProcessTransport(engine),
                                 [(0.0, 1e9)], fraction=0.5, seed=3)

    fleet = provision(60, obs=obs, transport=build)
    try:
        fleet.run_until(60.0)
        in_round = True
        reports = fleet.collect_all(batch_size=8)
        in_round = False
    finally:
        fleet.close()
    lost = sum(1 for r in reports if r.status.value == "no_data")
    assert lost > 3  # the injector really cut a chunk of the fleet
    assert fired_mid_round, "no SLO violation fired"
    for was_in_round, violation in fired_mid_round:
        assert was_in_round, "violation fired after the round returned"
        assert violation.streamed
        assert violation.reports_seen < 60  # strictly mid-round
    rules_fired = {v.rule for _f, v in fired_mid_round}
    assert rules_fired == {"lost_budget", "coverage"}
    assert obs.slo_violations_total.value("lost_budget") == 1
    assert obs.violations == [v for _f, v in fired_mid_round]


def test_span_traces_are_byte_identical_across_seeded_runs():
    def run():
        obs = Observability(seed=11)
        fleet = provision(40, obs=obs, shards=2,
                          transport="simulated-network",
                          transport_options={"loss_probability": 0.1,
                                             "seed": 7})
        try:
            fleet.run_until(60.0)
            fleet.collect_all(batch_size=10)
            fleet.run_until(120.0)
            fleet.collect_all(batch_size=10)
        finally:
            fleet.close()
        return obs

    one, two = run(), run()
    trace_one, trace_two = one.tracer.export_jsonl(), \
        two.tracer.export_jsonl()
    assert trace_one == trace_two
    assert trace_one  # not vacuously equal
    # Two rounds, two workers each, plus shard and device rows.
    paths = [row["path"] for row in one.tracer.export_rows()]
    assert "round:1/worker:0" in paths and "round:1/worker:1" in paths
    assert "round:2/worker:0" in paths
    assert any("/device:" in path for path in paths)
    # A different tracer seed renames every span but keeps the shape.
    reseeded = Observability(seed=12)
    assert reseeded.tracer.export_jsonl() != trace_one or not trace_one


def test_trace_writes_jsonl_file(tmp_path):
    obs = Observability(seed=1)
    fleet = provision(10, obs=obs)
    try:
        fleet.run_until(60.0)
        fleet.collect_all(batch_size=5)
    finally:
        fleet.close()
    path = tmp_path / "trace.jsonl"
    rows = obs.write_trace(str(path))
    assert rows == len(path.read_text().splitlines())
    assert rows >= 1 + 2 + 10  # round + shards + devices


def test_provision_without_obs_is_null_and_unchanged():
    fleet = provision(8)
    try:
        assert fleet.obs is NULL_OBSERVABILITY
        assert fleet.verifier.obs is NULL_OBSERVABILITY
        assert not isinstance(fleet.verifier.store, ObservedStore)
        fleet.run_until(60.0)
        reports = fleet.collect_all(batch_size=4)
    finally:
        fleet.close()
    assert len(reports) == 8
    assert not hasattr(NULL_OBSERVABILITY, "registry")


def test_observed_and_null_rounds_produce_identical_reports():
    def run(obs):
        fleet = provision(20, obs=obs, transport="simulated-network",
                          transport_options={"loss_probability": 0.1,
                                             "seed": 9})
        sink = MemorySink()
        fleet.verifier.add_sink(sink)
        try:
            fleet.run_until(60.0)
            fleet.collect_all(batch_size=5)
        finally:
            fleet.close()
        return [(r.device_id, r.status.value, r.freshness)
                for r in sink.reports]

    assert run(None) == run(Observability(seed=2))


def test_network_packet_metrics_from_simulated_transport():
    obs = Observability()
    fleet = provision(30, obs=obs, transport="simulated-network",
                      transport_options={"loss_probability": 0.2,
                                         "seed": 13})
    try:
        fleet.run_until(60.0)
        reports = fleet.collect_all(batch_size=10)
    finally:
        fleet.close()
    lost = sum(1 for r in reports if r.status.value == "no_data")
    assert obs.packets_admitted_total.value() > 0
    assert obs.packets_settled_total.value("dropped") > 0
    assert lost > 0  # the dropped packets surfaced as NO_DATA reports
