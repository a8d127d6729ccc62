"""The analysis layer: the exposition oracle, trace summaries, reports."""

import json
import random

import pytest

from tests.obs import trace_harness as harness
from tests.obs.exposition import (
    ExpositionParseError,
    histogram_quantiles,
    metrics_section,
    parse_exposition,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    ObsReport,
    build_summary,
    render_html,
)
from repro.obs.report import _REPORT_COUNTERS, summary_json
from repro.obs.tracing import SpanTracer


# ----------------------------------------------------------------------
# parse_exposition (the test-side exposition oracle)
# ----------------------------------------------------------------------

def test_parse_exposition_families_and_values():
    text = (
        "# HELP jobs_total Jobs processed.\n"
        "# TYPE jobs_total counter\n"
        "jobs_total 5\n"
        "# TYPE temp gauge\n"
        'temp{site="lab"} -3.5\n'
        "untyped_thing 1\n")
    families = parse_exposition(text)
    assert families["jobs_total"].kind == "counter"
    assert families["jobs_total"].help == "Jobs processed."
    assert families["jobs_total"].samples[0].value == 5
    (sample,) = families["temp"].samples
    assert sample.labels == {"site": "lab"}
    assert sample.value == -3.5
    assert families["untyped_thing"].kind == "untyped"


def test_parse_exposition_unescapes_label_values():
    text = ('# TYPE c counter\n'
            'c{path="a\\"b\\\\c\\nd",other="x,y={z}"} 1\n')
    families = parse_exposition(text)
    (sample,) = families["c"].samples
    assert sample.labels["path"] == 'a"b\\c\nd'
    assert sample.labels["other"] == "x,y={z}"


def test_parse_exposition_folds_histogram_components():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", "Latency.", labels=("op",),
                              buckets=(0.1, 1.0))
    hist.labels("read").observe(0.05)
    hist.labels("read").observe(0.5)
    families = parse_exposition(registry.render())
    family = families["lat"]
    assert family.kind == "histogram"
    names = {sample.name for sample in family.samples}
    assert names == {"lat_bucket", "lat_sum", "lat_count"}
    inf = [s for s in family.samples
           if s.name == "lat_bucket" and s.labels["le"] == "+Inf"]
    assert inf[0].value == 2


def test_parse_exposition_inf_values_and_errors():
    families = parse_exposition("# TYPE g gauge\ng +Inf\nh -Inf\n")
    assert families["g"].samples[0].value == float("inf")
    assert families["h"].samples[0].value == float("-inf")
    with pytest.raises(ExpositionParseError):
        parse_exposition("broken_line_without_value\n")
    with pytest.raises(ExpositionParseError):
        parse_exposition('c{unterminated="x 1\n')


def test_histogram_quantiles_match_the_live_metric():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", labels=("shard",),
                              buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.2, 0.3, 5.0):
        hist.labels("0").observe(value)
    families = parse_exposition(registry.render())
    (row,) = histogram_quantiles(families["lat"], quantiles=(0.5, 0.99))
    assert row["labels"] == {"shard": "0"}
    assert row["count"] == 4
    assert row["quantiles"]["p50"] == pytest.approx(hist.quantile(0.5, "0"))
    assert row["quantiles"]["p99"] == pytest.approx(
        hist.quantile(0.99, "0"))


# ----------------------------------------------------------------------
# Trace summaries
# ----------------------------------------------------------------------

def _scripted_trace():
    """Two workers; worker 1's shard 1 finishes last (critical path)."""
    clock = harness._ScriptedClock()
    tracer = SpanTracer(seed=5, clock=clock)
    with tracer.trace_round(0, worker="0") as round_span:
        with tracer.trace_shard(round_span, 0, devices=2) as shard:
            clock.advance(1.0)
            tracer.record_device_verify(shard, "dev-a", "healthy")
            tracer.record_device_verify(shard, "dev-b", "infected")
    with tracer.trace_round(0, worker="1") as round_span:
        with tracer.trace_shard(round_span, 1, devices=1) as shard:
            clock.advance(3.0)
            tracer.record_device_verify(shard, "dev-c", "healthy")
    return tracer.export_rows()


def test_build_summary_reconstructs_the_tree():
    summary = build_summary(_scripted_trace(), title="t")
    (round_row,) = summary["rounds"]
    assert round_row["round"] == 0
    assert [w["worker"] for w in round_row["workers"]] == ["0", "1"]
    assert round_row["devices"] == 3
    assert round_row["statuses"] == {"healthy": 2, "infected": 1}
    assert round_row["shard_count"] == 2
    # Shard durations are 1.0 and 3.0 → skew 2.0.
    assert round_row["shard_skew"] == pytest.approx(2.0)
    assert summary["totals"] == {
        "rounds": 1, "spans": len(_scripted_trace()),
        "device_verifies": 3, "statuses": {"healthy": 2, "infected": 1}}


def test_critical_path_follows_the_latest_finisher():
    summary = build_summary(_scripted_trace(), title="t")
    chain = summary["rounds"][0]["critical_path"]
    assert [link["kind"] for link in chain] == ["round", "shard",
                                                "device_verify"]
    assert chain[0]["path"] == "round:0/worker:1"
    assert chain[1]["path"] == "round:0/worker:1/shard:1"
    assert chain[2]["path"].endswith("device:dev-c")
    assert chain[2]["status"] == "healthy"


def test_shard_attrs_surface_in_the_summary():
    rows = harness.build_trace(devices=20, rounds=1, shards=2)
    summary = build_summary(rows, title="t")
    shards = [shard for worker in summary["rounds"][0]["workers"]
              for shard in worker["shards"]]
    assert len(shards) == 2
    for shard in shards:
        assert shard["devices"] == 10
        assert shard["received"] + shard["lost"] == 10


def test_summary_is_byte_identical_for_same_seed_traces():
    one = harness.build_trace(devices=60, rounds=2, shards=3, seed=11)
    two = harness.build_trace(devices=60, rounds=2, shards=3, seed=11)
    assert summary_json(build_summary(one, title="x")) == \
        summary_json(build_summary(two, title="x"))
    # A different seed changes span ids but not the derived analysis,
    # which depends only on paths/times/attrs.
    other = harness.build_trace(devices=60, rounds=2, shards=3, seed=12)
    assert summary_json(build_summary(other, title="x")) == \
        summary_json(build_summary(one, title="x"))


def test_metrics_section_appears_only_with_a_registry():
    rows = _scripted_trace()
    assert "metrics" not in build_summary(rows)
    registry = harness.build_registry(devices=40, shards=2)
    summary = build_summary(rows, registry=registry)
    assert summary["metrics"]["counters"]["repro_rounds_total"]["_"] == 2
    latency = summary["metrics"]["verify_latency"]
    assert {row["labels"]["shard"] for row in latency} == {"0", "1"}
    for row in latency:
        assert row["quantiles"]["p50"] is not None


# Label values that exercise every exposition escape plus the characters
# a naive label splitter would trip over.
_LABEL_VALUES = ("0", "1", "a\"b", "back\\slash", "new\nline", "x,y=z",
                 "{}", "")
_BUCKET_SETS = ((0.1, 1.0, 10.0), (1.0,), (0.0, 10.0), (-1.0, 0.5, 2.0),
                (0.000025, 0.0001, 0.001, 0.25), (5.0, 6.0, 7.0))


def _random_registry(rng: random.Random,
                     cells: bool = True) -> MetricsRegistry:
    """A registry shaped like an ``Observability`` one, drawn from rng;
    with ``cells``, sometimes a campaign parent with absorbed cells."""
    registry = MetricsRegistry()
    for name in _REPORT_COUNTERS:
        if rng.random() < 0.2:
            continue  # never registered
        labels = rng.choice(((), ("status",), ("rule", "cell")))
        counter = registry.counter(name, "A counter.", labels=labels)
        for _ in range(rng.randrange(4) if labels else 1):
            child = counter.labels(*(rng.choice(_LABEL_VALUES)
                                     for _ in labels))
            if rng.random() < 0.8:  # else touched but zero
                child.inc(rng.choice((1, 7, 0.5, 1e-7, 2.0 ** 60,
                                      rng.uniform(0.0, 1e6))))
    if rng.random() < 0.9:
        labels = rng.choice(((), ("shard",), ("zone", "shard")))
        buckets = rng.choice(_BUCKET_SETS)
        verify = registry.histogram("repro_device_verify_seconds",
                                    "Verify latency.", labels=labels,
                                    buckets=buckets)
        for _ in range(rng.randrange(5) if labels else 1):
            child = verify.labels(*(rng.choice(_LABEL_VALUES)
                                    for _ in labels))
            for _ in range(rng.choice((0, 0, 1, 3, 40))):
                child.observe(rng.choice((
                    rng.uniform(-2.0, 12.0), rng.choice(buckets),
                    rng.uniform(0.0, 0.002))))
    if cells and rng.random() < 0.4:
        child = _random_registry(random.Random(rng.random()), cells=False)
        for cell in range(rng.randrange(1, 3)):
            registry.absorb(child, "cell", rng.choice(_LABEL_VALUES)
                            + str(cell))
    return registry


def test_metrics_section_matches_the_exposition_oracle():
    """Read from the registry, the section equals the one the oracle
    parses back out of the rendered exposition, byte for byte."""
    for seed in range(300):
        registry = _random_registry(random.Random(seed))
        ours = summary_json(build_summary([], registry=registry)["metrics"])
        oracle = summary_json(metrics_section(registry.render()))
        assert ours == oracle, f"seed {seed}"


# ----------------------------------------------------------------------
# Artifacts: files and HTML
# ----------------------------------------------------------------------

def test_obs_report_write_round_trip(tmp_path):
    report = ObsReport(_scripted_trace(),
                       registry=harness.build_registry(devices=10,
                                                       shards=2),
                       title="written")
    assert report.summary["totals"]["device_verifies"] == 3
    assert "verify_latency" in report.summary["metrics"]
    written = report.write(html_path=str(tmp_path / "r.html"),
                           json_path=str(tmp_path / "r.json"))
    assert json.loads((tmp_path / "r.json").read_text()) == report.summary
    assert set(written) == {"html", "json"}


def test_html_report_is_self_contained_and_embeds_the_summary():
    rows = _scripted_trace()
    summary = build_summary(rows, title="page <title>")
    html = render_html(summary, rows=rows)
    assert html.startswith("<!doctype html>")
    assert "<svg" in html and "</svg>" in html
    assert "critical path" in html
    assert "page &lt;title&gt;" in html  # escaped
    assert "http://" not in html.replace(
        "http://www.w3.org/2000/svg", "")  # no external assets
    embedded = html.split("id='obs-summary'>", 1)[1].split("</script>")[0]
    assert json.loads(embedded) == summary


def test_observability_report_facade():
    obs = Observability(seed=3)
    with obs.trace_round(0) as round_span:
        with obs.trace_shard(round_span, 0) as shard:
            obs.record_device_verify(shard, "dev-a", "healthy")
    report = obs.report(title="facade")
    assert report.summary["totals"]["device_verifies"] == 1
    assert "metrics" in report.summary  # registry included
