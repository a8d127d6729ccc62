"""The metrics registry: instruments, labels, and the text exposition."""

import math

import pytest

from repro.obs import SUMMARY_QUANTILES, MetricError, MetricsRegistry


def test_counter_counts_and_renders():
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total", "Jobs processed.")
    counter.inc()
    counter.inc(4)
    assert counter.value() == 5
    text = registry.render()
    assert "# HELP jobs_total Jobs processed." in text
    assert "# TYPE jobs_total counter" in text
    assert "jobs_total 5" in text


def test_counter_rejects_negative_increment():
    counter = MetricsRegistry().counter("c")
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("inflight")
    gauge.inc()
    gauge.inc()
    gauge.dec()
    assert gauge.value() == 1
    gauge.set(7.5)
    assert gauge.value() == 7.5


def test_labelled_children_are_cached_and_sorted():
    registry = MetricsRegistry()
    counter = registry.counter("reports_total", labels=("status",))
    healthy = counter.labels("healthy")
    assert counter.labels("healthy") is healthy  # cached child
    counter.labels("no_data").inc(2)
    healthy.inc()
    text = registry.render()
    # Children render sorted by label value, whatever the touch order.
    assert text.index('status="healthy"') < text.index('status="no_data"')
    assert 'reports_total{status="no_data"} 2' in text
    assert counter.value("healthy") == 1
    assert counter.value("never_seen") == 0.0


def test_labels_by_keyword_and_arity_errors():
    counter = MetricsRegistry().counter("x", labels=("op", "outcome"))
    assert counter.labels(op="read", outcome="ok") is \
        counter.labels("read", "ok")
    with pytest.raises(MetricError):
        counter.labels("read")  # missing a value
    with pytest.raises(MetricError):
        counter.labels("read", outcome="ok")  # mixed styles
    with pytest.raises(MetricError):
        counter.labels(op="read", wrong="ok")


def test_histogram_rejects_the_reserved_le_label():
    with pytest.raises(MetricError):
        MetricsRegistry().histogram("latency", labels=("shard", "le"))


def test_histogram_buckets_are_cumulative_with_inf():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.05, 0.5, 5.0):
        hist.observe(value)
    text = registry.render()
    assert 'latency_bucket{le="0.1"} 2' in text
    assert 'latency_bucket{le="1"} 3' in text
    assert 'latency_bucket{le="+Inf"} 4' in text
    assert "latency_sum 5.6" in text
    assert "latency_count 4" in text


def test_histogram_boundary_observation_lands_in_its_bucket():
    hist = MetricsRegistry().histogram("h", buckets=(1.0,))
    hist.observe(1.0)  # le="1" is inclusive, Prometheus-style
    child = hist.labels()
    assert child.counts[0] == 1


def test_histogram_needs_buckets():
    with pytest.raises(MetricError):
        MetricsRegistry().histogram("h", buckets=())


def test_reregistration_is_idempotent_on_matching_signature():
    registry = MetricsRegistry()
    first = registry.counter("c", labels=("op",))
    again = registry.counter("c", labels=("op",))
    assert again is first
    with pytest.raises(MetricError):
        registry.counter("c")  # different labels
    with pytest.raises(MetricError):
        registry.gauge("c", labels=("op",))  # different kind


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    counter = registry.counter("c", labels=("path",))
    counter.labels('a"b\\c\nd').inc()
    text = registry.render()
    assert 'path="a\\"b\\\\c\\nd"' in text


def test_render_is_deterministic_across_registries():
    def build():
        registry = MetricsRegistry()
        # Registration/touch order deliberately differs from sort order.
        registry.gauge("z_gauge").set(1)
        counter = registry.counter("a_total", labels=("s",))
        counter.labels("b").inc()
        counter.labels("a").inc(2)
        hist = registry.histogram("m_seconds", buckets=(0.5, 2.0))
        hist.observe(0.1)
        return registry

    one = build()
    two = MetricsRegistry()
    hist = two.histogram("m_seconds", buckets=(0.5, 2.0))
    hist.observe(0.1)
    counter = two.counter("a_total", labels=("s",))
    counter.labels("a").inc(2)
    counter.labels("b").inc()
    two.gauge("z_gauge").set(1)
    assert one.render() == two.render()


def test_empty_registry_renders_empty():
    assert MetricsRegistry().render() == ""


# ----------------------------------------------------------------------
# v2: quantiles, summaries, absorb
# ----------------------------------------------------------------------

def test_histogram_value_raises_metric_error():
    hist = MetricsRegistry().histogram("h", buckets=(1.0,))
    hist.observe(0.5)
    with pytest.raises(MetricError, match="histogram"):
        hist.value()
    # The explicit reads remain available.
    assert hist.labels().sum == 0.5
    assert hist.labels().count == 1


def test_quantile_on_known_distribution_within_bucket_error():
    # 100 uniform observations 0.5, 1.5, ..., 99.5 against decade-ish
    # bucket boundaries: every estimate must land inside its bucket
    # bound, and the bound must contain the true quantile.
    boundaries = tuple(float(b) for b in range(10, 101, 10))
    hist = MetricsRegistry().histogram("u", buckets=boundaries)
    values = [i + 0.5 for i in range(100)]
    for value in values:
        hist.observe(value)
    child = hist.labels()
    for q in (0.1, 0.25, 0.5, 0.9, 0.99):
        # The q-quantile of n observations is the ceil(q*n)-th smallest
        # (the rank convention the bucket search uses).
        true = sorted(values)[max(math.ceil(q * 100) - 1, 0)]
        upper = min(b for b in boundaries if b >= true)
        lower = upper - 10.0
        estimate = child.quantile(q)
        assert lower <= estimate <= upper
        assert lower <= true <= upper, (q, lower, true, upper)
        # Error is bounded by the bucket width (10 here).
        assert abs(estimate - true) <= (upper - lower)


def test_quantile_interpolates_within_the_bucket():
    hist = MetricsRegistry().histogram("h", buckets=(0.0, 10.0))
    for _ in range(10):
        hist.observe(5.0)  # all ten land in (0, 10]
    # Median rank 5/10 → halfway through the (0, 10] bucket.
    assert hist.quantile(0.5) == pytest.approx(5.0)


def test_quantile_overflow_clamps_to_last_finite_boundary():
    hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
    hist.observe(100.0)
    assert hist.quantile(0.5) == 2.0


def test_quantile_empty_and_invalid():
    hist = MetricsRegistry().histogram("h", buckets=(1.0,))
    assert hist.quantile(0.5) is None
    hist.observe(0.5)
    with pytest.raises(MetricError):
        hist.quantile(1.5)
    gauge = MetricsRegistry().gauge("g")
    with pytest.raises(MetricError):
        gauge.quantile(0.5)


def test_summary_lines_render_for_nonempty_series_only():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", labels=("shard",), buckets=(1.0, 2.0))
    hist.labels("0").observe(0.5)
    hist.labels("1")  # touched but empty: no summary sample
    text = registry.render()
    assert "# TYPE lat_summary gauge" in text
    for q in SUMMARY_QUANTILES:
        assert f'lat_summary{{shard="0",quantile="{q}"}}' in text
    assert 'lat_summary{shard="1"' not in text
    # A histogram with no non-empty series renders no summary family.
    idle = MetricsRegistry()
    idle.histogram("lat", buckets=(1.0,)).labels()
    assert "_summary" not in idle.render()


def test_absorb_merges_under_cell_label_with_rename():
    parent = MetricsRegistry()
    parent.counter("repro_rounds_total").inc(7)  # parent's own family
    child = MetricsRegistry()
    child.counter("repro_rounds_total").inc(2)
    child.gauge("repro_devices").set(5)
    hist = child.histogram("repro_lat", labels=("shard",), buckets=(1.0,))
    hist.labels("0").observe(0.5)
    hist.labels("0").observe(3.0)
    parent.absorb(child, "cell", "a")
    other = MetricsRegistry()
    other.counter("repro_rounds_total").inc(4)
    parent.absorb(other, "cell", "b")
    text = parent.render()
    assert "repro_rounds_total 7" in text  # parent family untouched
    assert 'repro_cell_rounds_total{cell="a"} 2' in text
    assert 'repro_cell_rounds_total{cell="b"} 4' in text
    assert 'repro_cell_devices{cell="a"} 5' in text
    assert 'repro_cell_lat_bucket{shard="0",cell="a",le="1"} 1' in text
    assert 'repro_cell_lat_count{shard="0",cell="a"} 2' in text
    assert 'repro_cell_lat_sum{shard="0",cell="a"} 3.5' in text
