"""The Observability facade, ObservedStore, and the null default."""

import pytest

from repro.core.verification import DeviceStatus, VerificationReport
from repro.fleet.sinks import RoundStats
from repro.obs import (
    NULL_OBSERVABILITY,
    LostBudgetRule,
    NullObservability,
    Observability,
    ObservedStore,
)
from repro.store import MemoryStore
from tests.store.helpers import journaled_reports


def report(status=DeviceStatus.HEALTHY):
    return VerificationReport(device_id="dev", collection_time=0.0,
                              status=status)


def test_report_committed_counts_by_status():
    obs = Observability()
    obs.report_committed(report())
    obs.report_committed(report())
    obs.report_committed(report(DeviceStatus.NO_DATA))
    assert obs.reports_total.value("healthy") == 2
    assert obs.reports_total.value("no_data") == 1


def test_round_finished_folds_stats():
    obs = Observability()
    obs.round_finished(RoundStats(requests_sent=10, responses_received=8,
                                  responses_lost=2,
                                  stale_responses_rejected=1,
                                  wall_end=0.5))
    assert obs.rounds_total.value() == 1
    assert obs.requests_sent_total.value() == 10
    assert obs.responses_lost_total.value() == 2
    assert obs.stale_responses_total.value() == 1
    assert obs.round_wall_seconds.labels().count == 1


def test_cell_finished_folds_campaign_counters():
    obs = Observability()
    obs.cell_finished(1.5, skipped_rounds=2, recovered_rounds=1)
    obs.cell_finished(0.5)
    assert obs.campaign_cells_total.value() == 2
    assert obs.campaign_rounds_skipped_total.value() == 2
    assert obs.campaign_rounds_recovered_total.value() == 1


def test_observed_store_times_writes_without_changing_them():
    obs = Observability()
    store = ObservedStore(MemoryStore(), obs)
    r = report()
    store.append_report(r)
    store.append_report(r)
    # The wrapped backend received the writes unmodified.
    assert journaled_reports(store.inner) == [r.to_row(), r.to_row()]
    store.checkpoint({}, None, {}, rounds_completed=0)
    assert obs.store_ops.value("append_report") == 2
    assert obs.store_ops.value("checkpoint") == 1
    assert obs.store_op_seconds.labels("append_report").count == 2


def test_observed_store_resolves_each_ops_series_once(monkeypatch):
    """Each op's child series is looked up on its first write only, and
    an op never called adds no series to the exposition."""
    obs = Observability()
    store = ObservedStore(MemoryStore(), obs)
    resolved = []
    labels = type(obs.store_ops).labels

    def counted_labels(metric, *values):
        resolved.append((metric.name, values))
        return labels(metric, *values)

    monkeypatch.setattr(type(obs.store_ops), "labels", counted_labels)
    for _ in range(3):
        store.append_report(report())
    store.checkpoint({}, None, {})
    store.checkpoint({}, None, {})
    assert sorted(resolved) == [
        ("repro_store_op_seconds", ("append_report",)),
        ("repro_store_op_seconds", ("checkpoint",)),
        ("repro_store_ops_total", ("append_report",)),
        ("repro_store_ops_total", ("checkpoint",))]
    monkeypatch.undo()
    text = obs.registry.render()
    assert 'repro_store_ops_total{op="append_report"} 3' in text
    assert 'repro_store_ops_total{op="checkpoint"} 2' in text
    assert 'op="save_enrollment"' not in text
    assert 'op="restore_state"' not in text


def test_slo_violations_are_counted_per_rule():
    fired = []
    obs = Observability(slo_rules=[LostBudgetRule(0)],
                        on_violation=[fired.append])
    sink = obs.health_sink()
    assert sink is not None
    sink.emit(report(DeviceStatus.NO_DATA))
    assert obs.slo_violations_total.value("lost_budget") == 1
    assert len(fired) == 1
    assert obs.violations == [fired[0]]


def test_no_rules_means_no_sink():
    obs = Observability()
    assert obs.health_sink() is None
    assert obs.violations == []


def test_attach_transport_is_idempotent():
    class _Network:
        def __init__(self):
            self.on_packet_admitted = []
            self.on_packet_settled = []

    class _Transport:
        def __init__(self, network, inner=None):
            self.network = network
            if inner is not None:
                self.inner = inner

    obs = Observability()
    network = _Network()
    transport = _Transport(network)
    obs.attach_transport(transport)
    obs.attach_transport(transport)  # same network: not double-hooked
    obs.attach_transport(_Transport(None, inner=transport))  # via .inner
    assert len(network.on_packet_admitted) == 1
    assert len(network.on_packet_settled) == 1
    network.on_packet_admitted[0]("packet")
    network.on_packet_settled[0]("packet", "delivered")
    network.on_packet_settled[0]("packet", "dropped")
    assert obs.packets_admitted_total.value() == 1
    assert obs.packets_settled_total.value("delivered") == 1
    assert obs.packets_settled_total.value("dropped") == 1


def test_serve_returns_one_server_until_closed():
    obs = Observability()
    server = obs.serve()
    try:
        assert obs.serve() is server
    finally:
        obs.close()
    second = obs.serve()  # a closed server is replaced
    try:
        assert second is not server
    finally:
        obs.close()


def test_null_observability_is_inert():
    null = NullObservability()
    assert not null.enabled
    assert not NULL_OBSERVABILITY.enabled
    null.bind_engine(None)
    null.attach_transport(None)
    store = MemoryStore()
    assert null.wrap_store(store) is store
    assert null.health_sink() is None
    assert null.violations == []
    with null.trace_round(1) as span:
        assert span is None
    with null.trace_shard(None, 0) as span:
        assert span is None
    null.record_device_verify(None, "dev", "healthy")
    null.report_committed(report())
    null.round_finished(RoundStats())
    null.cell_finished(0.0)
    assert not hasattr(null, "registry")  # nothing recorded
    assert null.write_trace("/nonexistent/never-written") == 0
    null.close()
    with pytest.raises(RuntimeError):
        null.serve()


# ----------------------------------------------------------------------
# v2: summary lines and per-cell children
# ----------------------------------------------------------------------

def test_summary_lines_appear_in_the_service_exposition():
    obs = Observability()
    obs.device_verify_seconds.labels("0").observe(0.001)
    text = obs.registry.render()
    assert "# TYPE repro_device_verify_seconds_summary gauge" in text
    assert 'quantile="0.5"' in text


def test_for_cell_children_are_deterministic_and_disjoint():
    parent = Observability(seed=99)
    a1 = parent.for_cell("a")
    a2 = Observability(seed=99).for_cell("a")
    b = parent.for_cell("b")
    assert a1.tracer.seed == a2.tracer.seed  # same parent seed + label
    assert a1.tracer.seed != b.tracer.seed
    assert a1.tracer.seed != parent.tracer.seed
    assert a1.cell == "a"
    assert a1.registry is not parent.registry
    assert a1.tracer is not parent.tracer
    # Same path in two cells → different span ids.
    with a1.trace_round(0) as span_a, b.trace_round(0) as span_b:
        pass
    row_a = a1.tracer.export_rows()[0]
    row_b = b.tracer.export_rows()[0]
    assert row_a["path"] == row_b["path"]
    assert row_a["span_id"] != row_b["span_id"]


def test_absorb_cell_lands_in_the_cell_namespace():
    parent = Observability()
    parent.rounds_total.inc(10)
    child = parent.for_cell("c1")
    child.rounds_total.inc(3)
    child.report_committed(report())
    parent.absorb_cell(child)
    text = parent.registry.render()
    assert "repro_rounds_total 10" in text
    assert 'repro_cell_rounds_total{cell="c1"} 3' in text
    assert 'repro_cell_reports_total{status="healthy",cell="c1"} 1' in text


def test_null_observability_v2_surface():
    null = NullObservability()
    assert null.for_cell("x") is null
    null.absorb_cell(null)
    assert null.cell is None
    with pytest.raises(RuntimeError):
        null.report()
