"""A minimal Prometheus text-format parser: the exposition oracle.

:func:`parse_exposition` reads names, HELP/TYPE, label escaping and
``+Inf`` back out of :meth:`repro.obs.metrics.MetricsRegistry.render`
output, so the tests can check the exposition from the text a scraper
sees rather than from the registry that wrote it.
:func:`metrics_section` rebuilds an analysis report's ``metrics``
section from that text alone (counters verbatim, verify-latency
quantiles recomputed from the cumulative ``_bucket`` samples), the
independent reading :func:`repro.obs.report.build_summary` is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import SUMMARY_QUANTILES
from repro.obs.report import _REPORT_COUNTERS

#: Histogram sample-name suffixes folded into their base family.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


@dataclass
class Sample:
    """One exposition sample line: full name, labels, value."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """One ``# TYPE`` family and every sample attached to it."""

    name: str
    kind: str = "untyped"
    help: str = ""
    samples: List[Sample] = field(default_factory=list)


class ExpositionParseError(ValueError):
    """The exposition text violated the Prometheus text format."""


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    index = 0
    while index < len(value):
        ch = value[index]
        if ch == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:  # unknown escape: the backslash is literal
                out.append(ch)
                out.append(nxt)
            index += 2
            continue
        out.append(ch)
        index += 1
    return "".join(out)


def _unescape_help(text: str) -> str:
    # One left-to-right scan: sequential str.replace would corrupt a
    # literal backslash followed by "n" (escaped "\\n" reads as "\n").
    out: List[str] = []
    index = 0
    while index < len(text):
        ch = text[index]
        if ch == "\\" and index + 1 < len(text):
            nxt = text[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt == "\\":
                out.append("\\")
                index += 2
                continue
        out.append(ch)
        index += 1
    return "".join(out)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)  # float() accepts NaN / scientific notation


def _parse_labels(block: str, line: str) -> Dict[str, str]:
    """Parse one ``name="value",...`` block (without the braces)."""
    labels: Dict[str, str] = {}
    index = 0
    length = len(block)
    while index < length:
        eq = block.find("=", index)
        if eq < 0:
            raise ExpositionParseError(f"malformed label block: {line!r}")
        name = block[index:eq].strip()
        if eq + 1 >= length or block[eq + 1] != '"':
            raise ExpositionParseError(f"unquoted label value: {line!r}")
        cursor = eq + 2
        raw: List[str] = []
        while cursor < length:
            ch = block[cursor]
            if ch == "\\" and cursor + 1 < length:
                raw.append(block[cursor:cursor + 2])
                cursor += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            cursor += 1
        else:
            raise ExpositionParseError(f"unterminated label value: {line!r}")
        labels[name] = _unescape_label_value("".join(raw))
        index = cursor + 1
        if index < length:
            if block[index] != ",":
                raise ExpositionParseError(
                    f"expected ',' between labels: {line!r}")
            index += 1
    return labels


def parse_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse a Prometheus text exposition into metric families.

    Returns families keyed by family name.  Histogram component
    samples (``_bucket`` / ``_sum`` / ``_count``) fold into their base
    family when it was declared a histogram; anything sampled without
    a ``# TYPE`` line becomes an ``untyped`` family of its own.
    Label values are unescaped (``\\\\``, ``\\"``, ``\\n``), and
    ``+Inf`` / ``-Inf`` / ``NaN`` values parse to their floats.
    """
    families: Dict[str, MetricFamily] = {}

    def family(name: str) -> MetricFamily:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = MetricFamily(name)
        return entry

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family(parts[2]).kind = parts[3] if len(parts) > 3 \
                    else "untyped"
            elif len(parts) >= 3 and parts[1] == "HELP":
                family(parts[2]).help = _unescape_help(
                    parts[3] if len(parts) > 3 else "")
            continue  # other comments are ignored per the format
        brace = line.find("{")
        if brace >= 0:
            name = line[:brace]
            close = line.rfind("}")
            if close < brace:
                raise ExpositionParseError(f"unbalanced braces: {line!r}")
            labels = _parse_labels(line[brace + 1:close], line)
            rest = line[close + 1:].strip()
        else:
            name, _, rest = line.partition(" ")
            labels = {}
            rest = rest.strip()
        if not rest:
            raise ExpositionParseError(f"sample without a value: {line!r}")
        value = _parse_value(rest.split()[0])  # optional timestamp ignored
        base = name
        for suffix in _HISTOGRAM_SUFFIXES:
            if name.endswith(suffix):
                candidate = name[:-len(suffix)]
                if candidate in families and \
                        families[candidate].kind == "histogram":
                    base = candidate
                    break
        family(base).samples.append(Sample(name, labels, value))
    return families


def histogram_quantiles(family: MetricFamily,
                        quantiles: Sequence[float] = SUMMARY_QUANTILES
                        ) -> List[Dict[str, object]]:
    """Quantile estimates per labelled series of a scraped histogram.

    The same bucket-interpolation model as
    :meth:`repro.obs.metrics.Metric.quantile`, recomputed from the
    cumulative ``_bucket`` samples a scrape carries.  Returns one row
    per series: its labels (minus ``le``), observation count, and the
    estimate per quantile (``None`` for an empty series).
    """
    series: Dict[Tuple[Tuple[str, str], ...],
                 List[Tuple[float, float]]] = {}
    for sample in family.samples:
        if not sample.name.endswith("_bucket"):
            continue
        key = tuple(sorted((k, v) for k, v in sample.labels.items()
                           if k != "le"))
        series.setdefault(key, []).append(
            (_parse_value(sample.labels.get("le", "+Inf")), sample.value))
    rows: List[Dict[str, object]] = []
    for key in sorted(series):
        buckets = sorted(series[key])
        total = buckets[-1][1] if buckets else 0.0
        row: Dict[str, object] = {
            "labels": dict(key),
            "count": total,
            "quantiles": {},
        }
        for q in quantiles:
            row["quantiles"][f"p{round(q * 100):02d}"] = \
                _quantile_from_cumulative(buckets, q) if total else None
        rows.append(row)
    return rows


def _quantile_from_cumulative(buckets: List[Tuple[float, float]],
                              q: float) -> Optional[float]:
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    previous_bound = 0.0 if buckets and buckets[0][0] > 0 else None
    previous_cumulative = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank and cumulative > previous_cumulative:
            if bound == float("inf"):
                # No resolution past the last finite boundary.
                finite = [b for b, _ in buckets if b != float("inf")]
                return finite[-1] if finite else None
            lower = previous_bound if previous_bound is not None else bound
            inside = cumulative - previous_cumulative
            fraction = (rank - previous_cumulative) / inside
            fraction = min(max(fraction, 0.0), 1.0)
            return lower + (bound - lower) * fraction
        previous_bound = bound
        previous_cumulative = cumulative
    finite = [b for b, _ in buckets if b != float("inf")]
    return finite[-1] if finite else None


def metrics_section(text: str) -> Dict[str, object]:
    """A report's ``metrics`` section, read from exposition text."""
    families = parse_exposition(text)
    section: Dict[str, object] = {"counters": {}, "verify_latency": []}
    for name in _REPORT_COUNTERS:
        family = families.get(name)
        if family is None:
            continue
        rows = {}
        for sample in family.samples:
            key = ",".join(f"{k}={v}" for k, v in
                           sorted(sample.labels.items())) or "_"
            rows[key] = sample.value
        section["counters"][name] = rows
    verify = families.get("repro_device_verify_seconds")
    if verify is not None:
        section["verify_latency"] = histogram_quantiles(verify)
    return section
