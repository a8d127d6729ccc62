"""Trace & metrics analysis: answers, not counters.

PR 7 left the raw telemetry — span JSONL from the
:class:`~repro.obs.tracing.SpanTracer`, counters and histograms in the
:class:`~repro.obs.metrics.MetricsRegistry`.  This module is the layer
above it: feed both into an :class:`ObsReport` and get

* a **machine-readable JSON summary** — the round → shard →
  device-verify tree reconstructed, per-round critical paths (which
  chain of spans actually determined when the round ended), shard skew
  (how unevenly the shard workers finished), and verify-outcome
  breakdowns, plus counters and verify-latency quantiles read from the
  registry when one is supplied;
* a **self-contained HTML flame/timeline view** — one SVG timeline per
  round (shard bars in worker lanes, device-verify ticks), the summary
  tables alongside, zero external assets.

Everything trace-derived is a pure function of the span rows, which
are themselves deterministic under the virtual clock — so two
same-seed runs produce **byte-identical JSON summaries** (the obs test
suite pins this).  Metrics-derived figures (wall-clock latency
quantiles) are machine-dependent by nature and live in their own
``metrics`` section.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import SUMMARY_QUANTILES, MetricsRegistry

# ----------------------------------------------------------------------
# Trace-tree reconstruction
# ----------------------------------------------------------------------

def _segments(path: str) -> List[Tuple[str, str]]:
    parts: List[Tuple[str, str]] = []
    for segment in path.split("/"):
        kind, _, value = segment.partition(":")
        parts.append((kind, value))
    return parts


@dataclass
class _ShardNode:
    row: Dict[str, object]
    devices: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class _WorkerNode:
    row: Dict[str, object]
    shards: Dict[int, _ShardNode] = field(default_factory=dict)


def _build_tree(rows: Iterable[Dict[str, object]]
                ) -> Dict[int, Dict[str, _WorkerNode]]:
    """Round index → worker id → its shard/device subtree."""
    rounds: Dict[int, Dict[str, _WorkerNode]] = {}
    shard_index: Dict[str, _ShardNode] = {}
    deferred: List[Dict[str, object]] = []
    for row in rows:
        kind = row.get("kind")
        segments = _segments(str(row["path"]))
        if kind == "round":
            round_no = int(segments[0][1])
            worker = segments[1][1]
            rounds.setdefault(round_no, {})[worker] = _WorkerNode(row)
        elif kind == "shard":
            round_no = int(segments[0][1])
            worker = segments[1][1]
            shard_no = int(segments[2][1])
            worker_node = rounds.setdefault(round_no, {}).setdefault(
                worker, _WorkerNode({"path": "/".join(
                    f"{k}:{v}" for k, v in segments[:2]),
                    "kind": "round", "start": row["start"],
                    "end": row["end"]}))
            node = _ShardNode(row)
            worker_node.shards[shard_no] = node
            shard_path = "/".join(f"{k}:{v}" for k, v in segments[:3])
            shard_index[shard_path] = node
        elif kind == "device_verify":
            deferred.append(row)
    for row in deferred:
        shard_path, _, _device = str(row["path"]).rpartition("/")
        node = shard_index.get(shard_path)
        if node is not None:
            node.devices.append(row)
    return rounds


def _span_entry(row: Mapping[str, object]) -> Dict[str, object]:
    start = float(row["start"])
    end = float(row["end"])
    return {"path": row["path"], "start": start, "end": end,
            "duration": end - start}


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------

def build_summary(rows: Sequence[Dict[str, object]],
                  registry: Optional[MetricsRegistry] = None,
                  title: str = "trace") -> Dict[str, object]:
    """The machine-readable analysis of one span trace.

    Pure function of ``rows`` (plus the optional ``registry``, whose
    wall-clock figures go to the separate ``metrics`` section): same
    trace in, byte-identical JSON out.
    """
    tree = _build_tree(rows)
    rounds_out: List[Dict[str, object]] = []
    status_totals: Dict[str, int] = {}
    device_total = 0
    for round_no in sorted(tree):
        workers = tree[round_no]
        worker_rows: List[Dict[str, object]] = []
        shard_durations: List[float] = []
        round_statuses: Dict[str, int] = {}
        round_devices = 0
        starts: List[float] = []
        ends: List[float] = []
        for worker_id in sorted(workers):
            node = workers[worker_id]
            entry = _span_entry(node.row)
            starts.append(entry["start"])
            ends.append(entry["end"])
            shards_out: List[Dict[str, object]] = []
            for shard_no in sorted(node.shards):
                shard = node.shards[shard_no]
                shard_entry = _span_entry(shard.row)
                shard_durations.append(shard_entry["duration"])
                statuses: Dict[str, int] = {}
                for device in shard.devices:
                    attrs = device.get("attrs", {})
                    status = str(attrs.get("status", "unknown"))
                    statuses[status] = statuses.get(status, 0) + 1
                    round_statuses[status] = \
                        round_statuses.get(status, 0) + 1
                round_devices += len(shard.devices)
                attrs = node.shards[shard_no].row.get("attrs", {})
                shard_entry.update({
                    "shard": shard_no,
                    "devices": attrs.get(
                        "devices", len(shard.devices) or None),
                    "received": attrs.get("received"),
                    "lost": attrs.get("lost"),
                    "statuses": dict(sorted(statuses.items())),
                })
                shards_out.append(shard_entry)
            worker_rows.append({
                "worker": worker_id,
                **entry,
                "shards": shards_out,
            })
        device_total += round_devices
        for status, count in round_statuses.items():
            status_totals[status] = status_totals.get(status, 0) + count
        round_start = min(starts) if starts else 0.0
        round_end = max(ends) if ends else 0.0
        skew = (max(shard_durations) - min(shard_durations)) \
            if shard_durations else 0.0
        rounds_out.append({
            "round": round_no,
            "start": round_start,
            "end": round_end,
            "duration": round_end - round_start,
            "workers": worker_rows,
            "shard_count": len(shard_durations),
            "shard_skew": skew,
            "devices": round_devices,
            "statuses": dict(sorted(round_statuses.items())),
            "critical_path": _critical_path(workers),
        })
    summary: Dict[str, object] = {
        "title": title,
        "rounds": rounds_out,
        "totals": {
            "rounds": len(rounds_out),
            "spans": len(rows),
            "device_verifies": device_total,
            "statuses": dict(sorted(status_totals.items())),
        },
    }
    if registry is not None:
        summary["metrics"] = _metrics_section(registry)
    return summary


def _critical_path(workers: Mapping[str, _WorkerNode]
                   ) -> List[Dict[str, object]]:
    """The span chain that determined when the round ended.

    Walk down from the latest-finishing worker through its
    latest-finishing shard to that shard's last device verify: every
    link is the element whose completion the level above was waiting
    on, so shortening any link shortens the round.
    """
    if not workers:
        return []
    worker_id = max(sorted(workers),
                    key=lambda wid: float(workers[wid].row["end"]))
    node = workers[worker_id]
    chain = [{**_span_entry(node.row), "kind": "round"}]
    if not node.shards:
        return chain
    shard_no = max(sorted(node.shards),
                   key=lambda s: float(node.shards[s].row["end"]))
    shard = node.shards[shard_no]
    chain.append({**_span_entry(shard.row), "kind": "shard"})
    if shard.devices:
        last = max(shard.devices,
                   key=lambda d: (float(d["end"]), str(d["path"])))
        chain.append({**_span_entry(last), "kind": "device_verify",
                      "status": str(last.get("attrs", {}).get("status",
                                                              "unknown"))})
    return chain


#: Counter families surfaced verbatim in the summary's metrics section.
_REPORT_COUNTERS = (
    "repro_reports_total",
    "repro_rounds_total",
    "repro_requests_sent_total",
    "repro_responses_lost_total",
    "repro_stale_responses_total",
    "repro_slo_violations_total",
)


def _series_labels(label_names: Sequence[str], key: Sequence[str]
                   ) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(zip(label_names, key)))


def _metrics_section(registry: MetricsRegistry) -> Dict[str, object]:
    section: Dict[str, object] = {"counters": {}, "verify_latency": []}
    for name in _REPORT_COUNTERS:
        metric = registry.get(name)
        if metric is None:
            continue
        section["counters"][name] = {
            ",".join(f"{k}={v}" for k, v in
                     _series_labels(metric.label_names, key)) or "_":
            child.value
            for key, child in metric.child_items()}
    verify = registry.get("repro_device_verify_seconds")
    if verify is not None:
        series = sorted(((_series_labels(verify.label_names, key), child)
                         for key, child in verify.child_items()),
                        key=lambda item: item[0])
        section["verify_latency"] = [{
            "labels": dict(labels),
            "count": float(sum(child.counts)),
            "quantiles": {f"p{round(q * 100):02d}": child.quantile(q)
                          for q in SUMMARY_QUANTILES},
        } for labels, child in series]
    return section


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------

_HTML_STYLE = """
body { font: 13px/1.45 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.6em 0; }
td, th { border: 1px solid #d8d8e0; padding: 0.25em 0.7em;
         text-align: right; }
th { background: #f4f4f8; } td.l, th.l { text-align: left; }
svg { background: #fafafc; border: 1px solid #e4e4ec;
      display: block; margin: 0.6em 0; }
.lane-label { font-size: 10px; fill: #555; }
.crit { color: #b3261e; }
footer { margin-top: 3em; color: #888; font-size: 0.85em; }
"""

#: Flat, order-stable shard palette (cycled by shard index).
_SHARD_COLORS = ("#4c6ef5", "#12b886", "#f59f00", "#e64980",
                 "#7950f2", "#15aabf", "#fa5252", "#74b816")

_STATUS_COLORS = {"healthy": "#12b886", "infected": "#e64980",
                  "tampered": "#b3261e", "no_data": "#868e96"}


def _format_seconds(value: float) -> str:
    return f"{value:.6g}s"


def _svg_timeline(round_row: Mapping[str, object],
                  max_device_ticks: int = 400) -> str:
    """One round's flame/timeline view as an inline SVG."""
    start = float(round_row["start"])
    end = float(round_row["end"])
    span = max(end - start, 1e-9)
    width = 900.0
    left = 90.0
    lane_height = 18.0

    def x(t: float) -> float:
        return left + (float(t) - start) / span * (width - left - 10)

    lanes: List[str] = []
    y = 4.0
    for worker in round_row["workers"]:
        wy = y
        lanes.append(
            f'<text class="lane-label" x="4" y="{wy + 12:.1f}">'
            f'worker {_html.escape(str(worker["worker"]))}</text>')
        lanes.append(
            f'<rect x="{x(worker["start"]):.2f}" y="{wy:.1f}" '
            f'width="{max(x(worker["end"]) - x(worker["start"]), 1.0):.2f}"'
            f' height="{lane_height - 4:.1f}" rx="2" fill="#dbe4ff">'
            f'<title>{_html.escape(str(worker["path"]))} '
            f'({_format_seconds(worker["duration"])})</title></rect>')
        y += lane_height
        for shard in worker["shards"]:
            color = _SHARD_COLORS[int(shard["shard"]) % len(_SHARD_COLORS)]
            lanes.append(
                f'<text class="lane-label" x="18" y="{y + 11:.1f}">'
                f'shard {shard["shard"]}</text>')
            lanes.append(
                f'<rect x="{x(shard["start"]):.2f}" y="{y:.1f}" '
                f'width="{max(x(shard["end"]) - x(shard["start"]), 1.0):.2f}'
                f'" height="{lane_height - 6:.1f}" rx="2" fill="{color}" '
                f'fill-opacity="0.75"><title>'
                f'{_html.escape(str(shard["path"]))} '
                f'({_format_seconds(shard["duration"])}, '
                f'devices={shard.get("devices")})</title></rect>')
            y += lane_height
        y += 4.0
    ticks: List[str] = []
    device_rows = round_row.get("_device_ticks") or []
    if 0 < len(device_rows) <= max_device_ticks:
        for tick in device_rows:
            color = _STATUS_COLORS.get(str(tick["status"]), "#495057")
            ticks.append(
                f'<line x1="{x(tick["time"]):.2f}" y1="{y:.1f}" '
                f'x2="{x(tick["time"]):.2f}" y2="{y + 8:.1f}" '
                f'stroke="{color}" stroke-width="1">'
                f'<title>{_html.escape(str(tick["device"]))} '
                f'{_html.escape(str(tick["status"]))}</title></line>')
        y += 14.0
    height = y + 18.0
    axis = (f'<line x1="{left}" y1="{height - 14:.1f}" x2="{width - 10}" '
            f'y2="{height - 14:.1f}" stroke="#adb5bd"/>'
            f'<text class="lane-label" x="{left}" y="{height - 2:.1f}">'
            f'{start:.3f}s</text>'
            f'<text class="lane-label" x="{width - 70:.1f}" '
            f'y="{height - 2:.1f}">{end:.3f}s</text>')
    return (f'<svg width="{width:.0f}" height="{height:.0f}" '
            f'viewBox="0 0 {width:.0f} {height:.0f}" '
            f'xmlns="http://www.w3.org/2000/svg">'
            + "".join(lanes) + "".join(ticks) + axis + "</svg>")


def _device_ticks(rows: Sequence[Dict[str, object]]
                  ) -> Dict[int, List[Dict[str, object]]]:
    ticks: Dict[int, List[Dict[str, object]]] = {}
    for row in rows:
        if row.get("kind") != "device_verify":
            continue
        segments = _segments(str(row["path"]))
        round_no = int(segments[0][1])
        attrs = row.get("attrs", {})
        ticks.setdefault(round_no, []).append({
            "time": float(row["start"]),
            "device": attrs.get("device_id", segments[-1][1]),
            "status": attrs.get("status", "unknown"),
        })
    return ticks


def render_html(summary: Mapping[str, object],
                rows: Optional[Sequence[Dict[str, object]]] = None,
                title: Optional[str] = None) -> str:
    """The self-contained flame/timeline report for one summary.

    ``rows`` (the original span rows) add per-device tick marks to the
    timelines; without them the report still renders every table and
    shard bar from the summary alone.  The JSON summary is embedded in
    a ``<script type="application/json">`` block so the HTML file *is*
    the machine-readable artifact too.
    """
    title = title if title is not None else str(summary.get("title",
                                                            "trace"))
    ticks = _device_ticks(rows) if rows is not None else {}
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>obs report: {_html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Observability report — {_html.escape(title)}</h1>",
    ]
    totals = summary.get("totals", {})
    parts.append("<table><tr><th class='l'>rounds</th>"
                 "<th>spans</th><th>device verifies</th></tr>"
                 f"<tr><td class='l'>{totals.get('rounds', 0)}</td>"
                 f"<td>{totals.get('spans', 0)}</td>"
                 f"<td>{totals.get('device_verifies', 0)}</td></tr>"
                 "</table>")
    statuses = totals.get("statuses", {})
    if statuses:
        parts.append("<table><tr>" + "".join(
            f"<th>{_html.escape(str(status))}</th>"
            for status in statuses) + "</tr><tr>" + "".join(
            f"<td>{count}</td>" for count in statuses.values())
            + "</tr></table>")
    for round_row in summary.get("rounds", []):
        round_no = round_row["round"]
        parts.append(
            f"<h2>Round {round_no} — "
            f"{_format_seconds(round_row['duration'])} virtual, "
            f"{round_row['shard_count']} shard(s), skew "
            f"{_format_seconds(round_row['shard_skew'])}</h2>")
        enriched = dict(round_row)
        enriched["_device_ticks"] = ticks.get(int(round_no), [])
        parts.append(_svg_timeline(enriched))
        chain = round_row.get("critical_path", [])
        if chain:
            parts.append("<p class='crit'>critical path: " + " → ".join(
                f"{_html.escape(str(link['path']))} "
                f"({_format_seconds(link['duration'])})"
                for link in chain) + "</p>")
    metrics = summary.get("metrics")
    if metrics:
        verify = metrics.get("verify_latency") or []
        if verify:
            parts.append("<h2>Verify latency (wall clock, scraped)</h2>"
                         "<table><tr><th class='l'>series</th><th>count"
                         "</th><th>p50</th><th>p90</th><th>p99</th></tr>")
            for row in verify:
                labels = ",".join(f"{k}={v}" for k, v in
                                  sorted(row["labels"].items())) or "—"
                cells = "".join(
                    f"<td>{_format_seconds(q) if q is not None else '—'}"
                    f"</td>"
                    for q in (row["quantiles"].get("p50"),
                              row["quantiles"].get("p90"),
                              row["quantiles"].get("p99")))
                parts.append(f"<tr><td class='l'>{_html.escape(labels)}"
                             f"</td><td>{row['count']:.0f}</td>{cells}"
                             f"</tr>")
            parts.append("</table>")
    parts.append("<footer>generated by repro.obs.report — timelines are "
                 "virtual (engine) time; wall-clock figures only in the "
                 "scraped-metrics tables</footer>")
    parts.append("<script type='application/json' id='obs-summary'>"
                 + summary_json(summary) + "</script>")
    parts.append("</body></html>")
    return "".join(parts)


def summary_json(summary: Mapping[str, object]) -> str:
    """The summary's canonical (byte-stable) JSON text."""
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------

class ObsReport:
    """One analysis run: span rows in, JSON summary and HTML view out."""

    def __init__(self, rows: Sequence[Dict[str, object]],
                 registry: Optional[MetricsRegistry] = None,
                 title: str = "trace") -> None:
        self.rows = list(rows)
        self.title = title
        self.summary = build_summary(self.rows, registry=registry,
                                     title=title)

    def to_json(self) -> str:
        """The canonical JSON summary text (byte-stable)."""
        return summary_json(self.summary)

    def to_html(self) -> str:
        """The self-contained HTML flame/timeline report."""
        return render_html(self.summary, rows=self.rows, title=self.title)

    def write(self, html_path: Optional[str] = None,
              json_path: Optional[str] = None) -> Dict[str, str]:
        """Write the HTML and/or JSON artifacts; returns written paths."""
        written: Dict[str, str] = {}
        if json_path is not None:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
            written["json"] = json_path
        if html_path is not None:
            with open(html_path, "w", encoding="utf-8") as handle:
                handle.write(self.to_html())
            written["html"] = html_path
        return written
