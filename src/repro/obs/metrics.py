"""A dependency-free metrics registry with Prometheus text exposition.

Three instrument kinds, modelled on the Prometheus client data model
but implemented on nothing beyond the standard library:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — observations bucketed against *fixed* boundaries
  chosen at registration time, rendered as the cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` series scrapers expect.

Recent rates (``rate()``, ``increase()``) are the scraper's job,
computed from the plain counters.

Histograms additionally estimate quantiles from their bucket counts
(:meth:`_HistogramChild.quantile`, never off by more than the
quantile's bucket width), and every histogram renders one
``<name>_summary{quantile="..."}`` gauge family of the
:data:`SUMMARY_QUANTILES` estimates next to its bucket series.

Every instrument supports labels: ``registry.counter("x", labels=
("status",))`` returns a parent whose :meth:`Metric.labels` call
resolves (and caches) one child per label-value combination.  Children
are plain Python objects mutated with ``+=`` under the GIL, which is
what makes reads *lock-free*: :meth:`MetricsRegistry.render` (and the
HTTP scrape endpoint built on it) never takes a lock — it snapshots
each child's numbers with atomic reads/copies, so a scrape can never
block or be blocked by the collection hot path.  The price is that a
scrape landing mid-update may see a histogram whose ``_sum`` is one
observation ahead of its buckets; for monitoring that skew is
harmless, and the next scrape heals it.

Text rendering is deterministic: metrics sort by name, children by
label values, so two registries holding the same numbers render
byte-identical expositions (the obs test-suite pins this).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.statics.runtime import named_lock

#: Default latency buckets (seconds): tuned for the per-device verify
#: path, which sits in the tens-of-microseconds to milliseconds range.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Coarser buckets (seconds) for whole-round / whole-cell durations.
DEFAULT_ROUND_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

#: Quantiles every histogram renders as ``_summary`` lines (and the
#: analysis report tabulates).
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class MetricError(ValueError):
    """A metric was registered or used inconsistently."""


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _cell_rename(name: str) -> str:
    """Family rename for absorbed per-cell registries.

    ``repro_reports_total`` → ``repro_cell_reports_total``; names
    outside the ``repro_`` namespace get a plain ``cell_`` prefix.
    Keeping absorbed families in their own namespace means a parent
    registry that also instruments a fleet of its own can never
    collide with its cells' label sets.
    """
    if name.startswith("repro_"):
        return "repro_cell_" + name[len("repro_"):]
    return "cell_" + name


def _label_pairs(names: Sequence[str], values: Sequence[str]) -> str:
    """Render one sample's ``{name="value",...}`` block (may be empty)."""
    if not names:
        return ""
    pairs = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                     for name, value in zip(names, values))
    return "{" + pairs + "}"


class _CounterChild:
    """One labelled counter series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge instead")
        self.value += amount


class _GaugeChild:
    """One labelled gauge series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """One labelled histogram series: fixed buckets, running sum/count.

    ``counts[i]`` is the number of observations that fell into bucket
    ``i`` (non-cumulative; rendering accumulates).  ``observe`` is the
    hot-path call: one bisect plus three in-place adds.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Tuple[float, ...]) -> None:
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # last slot: +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def _quantile_bucket(self, q: float) -> Tuple[int, int, int, int]:
        """Locate ``q``'s bucket: (index, cumulative_before, in_bucket,
        total).  Snapshot the counts once so the answer is internally
        consistent even if an observation lands mid-call."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be within [0, 1], got {q}")
        counts = list(self.counts)
        total = sum(counts)
        if total == 0:
            return -1, 0, 0, 0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if cumulative + count >= rank and count:
                return index, cumulative, count, total
            cumulative += count
        # q == 0 with an empty leading bucket run, or float dust:
        # settle on the last non-empty bucket.
        for index in range(len(counts) - 1, -1, -1):
            if counts[index]:
                return index, total - counts[index], counts[index], total
        return -1, 0, 0, 0  # unreachable: total > 0 has a non-empty bucket

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation within the quantile's bucket (the same
        model as PromQL's ``histogram_quantile``): the estimate is
        always inside the quantile's bucket, so its absolute error is
        at most that bucket's width.  Quantiles landing in the overflow
        bucket clamp to the largest finite boundary.  ``None`` for an
        empty histogram.
        """
        index, before, inside, total = self._quantile_bucket(q)
        if total == 0:
            return None
        boundaries = self.boundaries
        if index >= len(boundaries):
            return boundaries[-1]
        upper = boundaries[index]
        lower = 0.0 if index == 0 and boundaries[0] > 0 \
            else (boundaries[index - 1] if index > 0 else upper)
        if lower > upper:
            lower = upper
        rank = q * total
        fraction = (rank - before) / inside
        if fraction < 0.0:
            fraction = 0.0
        elif fraction > 1.0:
            fraction = 1.0
        return lower + (upper - lower) * fraction


_CHILD_FACTORIES = {
    "counter": lambda metric: _CounterChild(),
    "gauge": lambda metric: _GaugeChild(),
    "histogram": lambda metric: _HistogramChild(metric.buckets),
}


class Metric:
    """One registered metric family: a parent plus labelled children.

    Unlabelled metrics expose the child API (``inc`` / ``set`` /
    ``observe``) directly on the parent through a default child; the
    hot path for labelled metrics is ``metric.labels(value)`` which
    caches the child, so repeated lookups cost one dict hit.
    """

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Tuple[float, ...] = ()) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.buckets = buckets
        # Children mutate under the GIL; the creation lock only guards
        # the insert of a *new* child (reads never take it).
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = named_lock("obs.metric_children")
        if not self.label_names:
            self._default = self.labels()

    def labels(self, *values: object, **kwvalues: object):
        """The child series for one label-value combination (cached)."""
        if kwvalues:
            if values:
                raise MetricError(
                    "pass label values either positionally or by name, "
                    "not both")
            try:
                values = tuple(kwvalues[name] for name in self.label_names)
            except KeyError as exc:
                raise MetricError(
                    f"metric {self.name!r} has labels "
                    f"{list(self.label_names)}, got {sorted(kwvalues)}"
                    ) from exc
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s) ({list(self.label_names)}), got "
                f"{len(key)}")
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, _CHILD_FACTORIES[self.kind](self))
        return child

    # -- unlabelled convenience (delegate to the default child) --------
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    # -- reads ----------------------------------------------------------
    def child_items(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Children sorted by label values (a lock-free snapshot)."""
        return sorted(self._children.items())

    def value(self, *label_values: object) -> float:
        """Current value of one series (0 if unseen).

        A counter or gauge returns its scalar.  A histogram has *no*
        single value — returning its sum would silently read as a count
        at most call sites and vice versa — so asking raises
        :class:`MetricError`; read
        ``labels(...).sum`` / ``.count`` or estimate a
        :meth:`quantile` instead (pinned by the obs unit tests).
        """
        if self.kind == "histogram":
            raise MetricError(
                f"metric {self.name!r} is a histogram and has no single "
                f"value(); read labels(...).sum or labels(...).count, or "
                f"estimate a quantile with quantile(q, ...)")
        key = tuple(str(value) for value in label_values)
        child = self._children.get(key)
        return 0.0 if child is None else child.value

    def quantile(self, q: float, *label_values: object) -> Optional[float]:
        """Estimate one histogram series' ``q``-quantile (see
        :meth:`_HistogramChild.quantile`); ``None`` if the series is
        unseen or empty."""
        if self.kind != "histogram":
            raise MetricError(
                f"metric {self.name!r} is a {self.kind}; only histograms "
                f"estimate quantiles")
        key = tuple(str(value) for value in label_values)
        child = self._children.get(key)
        return None if child is None else child.quantile(q)

    def render(self) -> List[str]:
        """This family's exposition lines (``# HELP``/``# TYPE`` first)."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self.child_items():
            if self.kind == "histogram":
                lines.extend(self._render_histogram(key, child))
            else:
                lines.append(
                    f"{self.name}{_label_pairs(self.label_names, key)} "
                    f"{_format_value(child.value)}")
        if self.kind == "histogram":
            lines.extend(self._render_summary())
        return lines

    def _render_summary(self) -> List[str]:
        """``<name>_summary{quantile=...}`` gauges next to the buckets.

        Quantile estimates derived from the bucket counts (so a plain
        scraper gets p50/p99 without PromQL); empty series render no
        summary samples — there is no honest estimate to publish.
        """
        lines: List[str] = []
        samples: List[str] = []
        names = self.label_names + ("quantile",)
        for key, child in self.child_items():
            if child.count == 0:
                continue
            for q in SUMMARY_QUANTILES:
                estimate = child.quantile(q)
                labels = _label_pairs(names, key + (_format_value(q),))
                samples.append(f"{self.name}_summary{labels} "
                               f"{_format_value(estimate)}")
        if samples:
            lines.append(f"# TYPE {self.name}_summary gauge")
            lines.extend(samples)
        return lines

    def _render_histogram(self, key: Tuple[str, ...],
                          child: _HistogramChild) -> List[str]:
        # Copy the per-bucket counts in one atomic list() so the
        # cumulative series is internally consistent even if an
        # observation lands mid-render.
        counts = list(child.counts)
        lines = []
        cumulative = 0
        names = self.label_names + ("le",)
        for boundary, count in zip(child.boundaries, counts):
            cumulative += count
            labels = _label_pairs(names, key + (_format_value(boundary),))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        cumulative += counts[-1]
        labels = _label_pairs(names, key + ("+Inf",))
        lines.append(f"{self.name}_bucket{labels} {cumulative}")
        plain = _label_pairs(self.label_names, key)
        lines.append(f"{self.name}_sum{plain} {_format_value(child.sum)}")
        lines.append(f"{self.name}_count{plain} {cumulative}")
        return lines


class MetricsRegistry:
    """All of one deployment's metrics, renderable as a text exposition.

    Registration is idempotent when the signature matches (same kind,
    labels and buckets) so independently-constructed components can
    share instrument definitions; a mismatched re-registration raises
    :class:`MetricError` rather than silently splitting a series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = named_lock("obs.registry")

    def _register(self, name: str, kind: str, help: str,
                  labels: Sequence[str],
                  buckets: Tuple[float, ...] = ()) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind or \
                        existing.label_names != tuple(labels) or \
                        existing.buckets != buckets:
                    raise MetricError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels "
                        f"{list(existing.label_names)}")
                return existing
            metric = Metric(name, kind, help=help, label_names=labels,
                            buckets=buckets)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Metric:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Metric:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Metric:
        """Register (or fetch) a histogram family with fixed buckets."""
        if "le" in labels:
            # The exposition format labels each bucket series with its
            # upper bound as ``le``; a second ``le`` would corrupt it.
            raise MetricError("'le' is reserved for histogram bucket "
                              "bounds")
        boundaries = tuple(sorted(set(float(b) for b in buckets)))
        if not boundaries:
            raise MetricError("a histogram needs at least one bucket "
                              "boundary")
        return self._register(name, "histogram", help, labels,
                              buckets=boundaries)

    def absorb(self, other: "MetricsRegistry", label: str,
               value: str) -> None:
        """Fold another registry's series into this one under a label.

        Every family in ``other`` is re-registered here with ``label``
        appended to its label names and every series merged in under
        ``value`` — counters add, gauges set,
        histograms merge bucket-by-bucket.  The absorbed families are
        renamed as per-cell aggregates (``repro_x_total`` →
        ``repro_cell_x_total``) so they can never collide with this
        registry's own top-level families.  Absorb each child registry
        **once**: a second absorb of the same ``value`` adds counts
        again.
        """
        for name in other.names():
            family = other._metrics[name]
            target = self._register(
                _cell_rename(name), family.kind, family.help,
                labels=family.label_names + (label,),
                buckets=family.buckets)
            for key, child in family.child_items():
                mine = target.labels(*(key + (value,)))
                if family.kind == "histogram":
                    counts = list(child.counts)
                    for index, count in enumerate(counts):
                        mine.counts[index] += count
                    mine.sum += child.sum
                    mine.count += sum(counts)
                elif family.kind == "gauge":
                    mine.set(child.value)
                else:  # counter: totals add
                    amount = child.value
                    if amount:
                        mine.inc(amount)

    def get(self, name: str) -> Optional[Metric]:
        """Look up a registered family by name (``None`` if absent)."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted."""
        return sorted(self._metrics)

    def render(self) -> str:
        """The full Prometheus text exposition (sorted, deterministic)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")
