"""Property: streaming SLO verdicts equal post-hoc verdicts, exactly.

The streaming path folds reports in one at a time and settles at the
round boundary; the post-hoc path recomputes the same objective from a
finished :class:`FleetHealth` — possibly *merged* from per-shard
aggregates, the way process workers' health parts fold into the
verifier's.  Both sides count with exact integers and rationals, so
the verdicts must agree bit-for-bit for any report stream and any
shard layout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import DeviceStatus, VerificationReport
from repro.fleet.sinks import FleetHealth
from repro.obs import (
    CoverageRule,
    LostBudgetRule,
    StreamingHealthSink,
)

# A report is (status, freshness); NO_DATA reports carry no freshness,
# exactly as the verifier produces them.
_statuses = st.sampled_from([DeviceStatus.HEALTHY, DeviceStatus.INFECTED,
                             DeviceStatus.NO_DATA])
_freshness = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                       allow_infinity=False)
_reports = st.lists(st.tuples(_statuses, _freshness), min_size=1,
                    max_size=40)


def _materialize(stream):
    return [VerificationReport(
        device_id=f"dev-{index:04d}", collection_time=0.0, status=status,
        freshness=None if status is DeviceStatus.NO_DATA else freshness)
        for index, (status, freshness) in enumerate(stream)]


def _rules(report_count, lost_budget, min_coverage, expect_devices):
    return [
        LostBudgetRule(lost_budget),
        CoverageRule(min_coverage,
                     expected_devices=report_count if expect_devices
                     else None),
    ]


@settings(max_examples=60, deadline=None)
@given(stream=_reports,
       lost_budget=st.integers(min_value=0, max_value=5),
       min_coverage=st.floats(min_value=0.05, max_value=1.0,
                              allow_nan=False),
       expect_devices=st.booleans(),
       shard_count=st.integers(min_value=1, max_value=5))
def test_streaming_verdict_equals_merged_post_hoc_verdict(
        stream, lost_budget, min_coverage, expect_devices, shard_count):
    reports = _materialize(stream)
    rules = _rules(len(reports), lost_budget, min_coverage, expect_devices)
    sink = StreamingHealthSink(rules)
    for report in reports:
        sink.emit(report)
    sink.flush()  # the round boundary settles every verdict
    streamed = {violation.rule for violation in sink.violations}

    # Post-hoc: the same reports dealt round-robin onto shard
    # aggregates, merged the way worker health parts are folded in.
    shards = [FleetHealth() for _ in range(shard_count)]
    for index, report in enumerate(reports):
        shards[index % shard_count].record(report)
    merged = FleetHealth()
    for shard in shards:
        merged.merge(shard)
    post_hoc = {rule.name for rule in rules if rule.violated_by(merged)}

    assert streamed == post_hoc


@settings(max_examples=40, deadline=None)
@given(stream=_reports, lost_budget=st.integers(min_value=0, max_value=3))
def test_mid_round_fire_is_never_retracted_by_the_boundary(stream,
                                                           lost_budget):
    """A rule that fires mid-round is violated at end-of-round too —
    streaming events are irrevocable, never false alarms."""
    reports = _materialize(stream)
    rule = LostBudgetRule(lost_budget)
    sink = StreamingHealthSink([rule])
    for report in reports:
        sink.emit(report)
    fired_mid_round = any(v.streamed for v in sink.violations)
    sink.flush()
    if fired_mid_round:
        health = FleetHealth()
        for report in reports:
            health.record(report)
        assert rule.violated_by(health)


# ----------------------------------------------------------------------
# Property: the exposition round-trips through the text-format parser
# ----------------------------------------------------------------------
#
# ``tests.obs.exposition.parse_exposition`` is a minimal Prometheus
# text-format reader; rendering any registry and parsing the text back
# must recover every family (name, TYPE), every sample's labels —
# escaping included — and every value exactly, with histogram bucket
# series cumulative and monotone.

import pytest

from repro.obs import MetricError, MetricsRegistry
from tests.obs.exposition import parse_exposition

_label_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
# Label values exercise the escapes (backslash, quote, newline) plus
# the characters that would confuse a naive splitter.
_label_values = st.text(
    alphabet='abcXYZ0 9\\"\n{},=', min_size=0, max_size=12)
# Help text: no leading/trailing blanks (the format cannot carry them).
_help_text = st.text(alphabet='help textn\\"\n', min_size=0,
                     max_size=20).map(lambda s: s.strip())
_values = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                    allow_infinity=False)
_amounts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

_metric_spec = st.fixed_dictionaries({
    "kind": st.sampled_from(["counter", "gauge", "histogram"]),
    "help": _help_text,
    "labels": st.lists(_label_names, min_size=0, max_size=2,
                       unique=True),
    "children": st.integers(min_value=1, max_value=3),
})


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_metric_spec, min_size=1, max_size=4),
       label_values=st.data())
def test_exposition_round_trips_through_the_parser(specs, label_values):
    registry = MetricsRegistry()
    expected = []  # (family, kind, samples: {labels-tuple: value-ish})
    for index, spec in enumerate(specs):
        name = f"m{index}_family"
        labels = tuple(spec["labels"])
        if spec["kind"] == "counter":
            metric = registry.counter(name, spec["help"], labels=labels)
        elif spec["kind"] == "gauge":
            metric = registry.gauge(name, spec["help"], labels=labels)
        elif "le" in labels:
            with pytest.raises(MetricError):
                registry.histogram(name, spec["help"], labels=labels)
            continue
        else:
            metric = registry.histogram(name, spec["help"], labels=labels,
                                        buckets=(0.1, 1.0, 10.0))
        children = {}
        for _ in range(spec["children"]):
            key = tuple(
                label_values.draw(_label_values, label="label value")
                for _ in labels)
            child = metric.labels(*key)
            if spec["kind"] == "counter":
                amount = label_values.draw(_amounts, label="amount")
                child.inc(amount)
                children[key] = child.value
            elif spec["kind"] == "gauge":
                value = label_values.draw(_values, label="value")
                child.set(value)
                children[key] = child.value
            else:
                child.observe(label_values.draw(_values, label="obs"))
                children[key] = (child.sum, child.count,
                                 tuple(child.counts))
        expected.append((name, spec["kind"], spec["help"], labels,
                         children))

    families = parse_exposition(registry.render())

    for name, kind, help_text, labels, children in expected:
        family = families[name]
        assert family.kind == kind
        assert family.help == help_text  # HELP escaping round-trips
        for key, want in children.items():
            key_map = dict(zip(labels, (str(v) for v in key)))
            if kind in ("counter", "gauge"):
                matches = [s for s in family.samples
                           if s.name == name and s.labels == key_map]
                assert len(matches) == 1
                assert matches[0].value == want
            else:
                want_sum, want_count, counts = want
                buckets = sorted(
                    (float("inf") if s.labels["le"] == "+Inf"
                     else float(s.labels["le"]), s.value)
                    for s in family.samples
                    if s.name == f"{name}_bucket"
                    and {k: v for k, v in s.labels.items() if k != "le"}
                    == key_map)
                # Cumulative and monotone, ending at the total count.
                assert [b for b, _ in buckets] == [0.1, 1.0, 10.0,
                                                   float("inf")]
                cumulative = [c for _, c in buckets]
                assert cumulative == sorted(cumulative)
                assert cumulative[-1] == want_count
                (count_sample,) = [s for s in family.samples
                                   if s.name == f"{name}_count"
                                   and s.labels == key_map]
                assert count_sample.value == want_count
                (sum_sample,) = [s for s in family.samples
                                 if s.name == f"{name}_sum"
                                 and s.labels == key_map]
                assert sum_sample.value == want_sum
