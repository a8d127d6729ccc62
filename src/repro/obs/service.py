"""The ``Observability`` facade: one object that lights up the stack.

Construct one, hand it to :meth:`repro.fleet.Fleet.provision(obs=...)
<repro.fleet.Fleet.provision>`, and every layer reports in:

* the collection pipeline records per-device verify latency
  (per-shard histograms), per-round counters and wall-time histograms,
  and span traces (``trace_round`` → ``trace_shard`` →
  ``trace_device_verify``);
* the simulated network reports packet admissions and settlements
  through its existing listener hooks;
* the state store reports journal/checkpoint operation latency through
  a pure-interposition wrapper (:class:`ObservedStore`);
* SLO rules stream over the report fanout and fire live violation
  events (see :mod:`repro.obs.slo`), counted per rule.

Everything is served by :meth:`Observability.serve` — a stdlib HTTP
endpoint a Prometheus scraper (or ``curl``) can hit *mid-round* — and
the trace is exported with :meth:`Observability.write_trace`.

The disabled twin, :class:`NullObservability`, keeps every
instrumented code path behind a single ``obs.enabled`` branch: with it
(the default) a collection round runs the exact historical
instruction stream plus one attribute test per shard/report, which the
``benchmarks/test_obs_overhead.py`` guard pins to noise.
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_ROUND_BUCKETS,
    MetricsRegistry,
)
from repro.obs.server import MetricsServer
from repro.obs.slo import SloRule, SloViolation, StreamingHealthSink
from repro.obs.tracing import Span, SpanTracer, derive_child_seed
from repro.store.base import StateStore


class ObservedStore(StateStore):
    """Time every store write without changing what the store does.

    A pure interposition (the wrapped backend is driven unmodified,
    mirroring the fault injectors' design), so it composes with any
    backend — and with the sharded verifier's internal locking, which
    wraps *around* this so the recorded latency is the backend's own,
    not lock-wait time.  :meth:`batch` forwards untimed, so a batch's
    commit is in no operation's latency, and neither is its write for a
    backend that defers the batch's rows to its exit: inside a batch,
    SQLite's ``append_report`` only queues the row, and the one
    ``executemany`` runs at the exit.
    """

    def __init__(self, inner: StateStore, obs: "Observability") -> None:
        self.inner = inner
        self._ops = obs.store_ops
        self._seconds = obs.store_op_seconds
        # op -> (counter child, histogram child), resolved on first use
        # so an op never called adds no zero-valued series.
        self._children: dict = {}

    def _timed(self, op: str, call, *args, **kwargs):
        started = _time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            children = self._children.get(op)
            if children is None:
                children = self._children[op] = (
                    self._ops.labels(op), self._seconds.labels(op))
            children[0].inc()
            children[1].observe(_time.perf_counter() - started)

    def save_enrollment(self, enrollment) -> None:
        self._timed("save_enrollment", self.inner.save_enrollment,
                    enrollment)

    def append_report(self, report) -> None:
        self._timed("append_report", self.inner.append_report, report)

    def checkpoint(self, enrollments, health, last_collection_times,
                   rounds_completed: int = 0) -> None:
        self._timed("checkpoint", self.inner.checkpoint, enrollments,
                    health, last_collection_times,
                    rounds_completed=rounds_completed)

    def batch(self):
        return self.inner.batch()

    def has_enrollment(self, device_id: str) -> bool:
        return self.inner.has_enrollment(device_id)

    def restore_state(self):
        return self._timed("restore_state", self.inner.restore_state)

    def state_rows(self):
        return self.inner.state_rows()

    def close(self) -> None:
        self.inner.close()


class Observability:
    """Metrics registry + span tracer + SLO sink, wired as one object.

    Parameters:

    * ``seed`` keys the deterministic span ids (same seed → byte-
      identical traces for the same deployment);
    * ``slo_rules`` are streamed over the report fanout; each fired
      violation increments ``repro_slo_violations_total{rule=...}``
      and reaches every ``on_violation`` callback mid-round;
    * ``cell`` names this instance as one campaign cell's child
      observability — usually set through :meth:`for_cell`, not
      directly.
    """

    #: Instrumented code paths branch on this once per shard/report.
    enabled = True

    def __init__(self, seed: int = 0,
                 slo_rules: Iterable[SloRule] = (),
                 on_violation: Sequence[Callable[[SloViolation], None]]
                 = (),
                 cell: Optional[str] = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(seed=seed)
        self.cell = cell
        r = self.registry
        # -- collection pipeline ---------------------------------------
        self.reports_total = r.counter(
            "repro_reports_total",
            "Verification reports committed, by outcome status.",
            labels=("status",))
        self.rounds_total = r.counter(
            "repro_rounds_total", "Collection rounds completed.")
        self.requests_sent_total = r.counter(
            "repro_requests_sent_total",
            "Collection requests sent to devices.")
        self.responses_lost_total = r.counter(
            "repro_responses_lost_total",
            "Collection requests that never got a response.")
        self.stale_responses_total = r.counter(
            "repro_stale_responses_total",
            "Responses rejected for arriving after their round settled.")
        self.device_verify_seconds = r.histogram(
            "repro_device_verify_seconds",
            "Per-device verification latency, by shard worker.",
            labels=("shard",), buckets=DEFAULT_LATENCY_BUCKETS)
        self.round_wall_seconds = r.histogram(
            "repro_round_wall_seconds",
            "Wall-clock duration of completed collection rounds.",
            buckets=DEFAULT_ROUND_BUCKETS)
        self.rounds_inflight = r.gauge(
            "repro_rounds_inflight",
            "Collection rounds currently in flight.")
        self.devices_enrolled = r.gauge(
            "repro_devices_enrolled", "Devices enrolled with the verifier.")
        # -- network ----------------------------------------------------
        self.packets_admitted_total = r.counter(
            "repro_net_packets_admitted_total",
            "Packets admitted onto the simulated network.")
        self.packets_settled_total = r.counter(
            "repro_net_packets_settled_total",
            "Packets settled, by outcome (delivered/dropped).",
            labels=("outcome",))
        # -- store ------------------------------------------------------
        self.store_ops = r.counter(
            "repro_store_ops_total",
            "State-store operations, by kind.", labels=("op",))
        self.store_op_seconds = r.histogram(
            "repro_store_op_seconds",
            "State-store operation latency, by kind.",
            labels=("op",), buckets=DEFAULT_LATENCY_BUCKETS)
        # -- SLO --------------------------------------------------------
        self.slo_violations_total = r.counter(
            "repro_slo_violations_total",
            "SLO violation events fired, by rule.", labels=("rule",))
        # -- campaign ---------------------------------------------------
        self.campaign_cells_total = r.counter(
            "repro_campaign_cells_total", "Campaign scenario cells run.")
        self.campaign_cell_seconds = r.histogram(
            "repro_campaign_cell_seconds",
            "Wall-clock duration of campaign cells.",
            buckets=DEFAULT_ROUND_BUCKETS)
        self.campaign_rounds_skipped_total = r.counter(
            "repro_campaign_rounds_skipped_total",
            "Campaign collection rounds skipped for verifier downtime.")
        self.campaign_rounds_recovered_total = r.counter(
            "repro_campaign_rounds_recovered_total",
            "Campaign rounds recovered via FleetVerifier.restore.")
        # -- worker pool (multi-process collection) ----------------------
        self.worker_queue_depth = r.gauge(
            "repro_worker_queue_depth",
            "Verification tasks in flight per pool worker.",
            labels=("worker",))
        self.worker_task_seconds = r.histogram(
            "repro_worker_task_seconds",
            "Round-trip latency of worker-pool verification tasks "
            "(dispatch to merged result), by worker.",
            labels=("worker",), buckets=DEFAULT_LATENCY_BUCKETS)
        self.worker_restarts_total = r.counter(
            "repro_worker_restarts_total",
            "Pool workers respawned after a crash, by worker slot.",
            labels=("worker",))

        def _count_violation(violation: SloViolation) -> None:
            self.slo_violations_total.labels(violation.rule).inc()

        rules = list(slo_rules)
        self._slo_sink: Optional[StreamingHealthSink] = None
        if rules:
            self._slo_sink = StreamingHealthSink(
                rules, on_violation=[_count_violation, *on_violation])
        self._status_children: dict = {}
        self._server: Optional[MetricsServer] = None
        self._attached_networks: set = set()

    # ------------------------------------------------------------------
    # Wiring (done once by Fleet.provision)
    # ------------------------------------------------------------------
    def bind_engine(self, engine) -> None:
        """Stamp spans and SLO events with this engine's virtual clock."""
        clock = lambda: engine.now  # noqa: E731 (one-expression clock)
        self.tracer.bind_clock(clock)
        if self._slo_sink is not None:
            self._slo_sink.bind_clock(clock)

    def attach_transport(self, transport) -> None:
        """Hook the transport's packet-settlement events (idempotent).

        Transports without a packet network (in-process) have nothing
        to hook and pass through silently; injector wrappers are
        unwrapped via their ``inner`` chain.
        """
        seen = 0
        while transport is not None and seen < 8:
            network = getattr(transport, "network", None)
            if network is not None and id(network) not in \
                    self._attached_networks:
                self._attached_networks.add(id(network))
                admitted = self.packets_admitted_total
                settled = self.packets_settled_total
                delivered = settled.labels("delivered")
                dropped = settled.labels("dropped")

                def _on_admitted(_packet) -> None:
                    admitted.inc()

                def _on_settled(_packet, outcome: str) -> None:
                    if outcome == "delivered":
                        delivered.inc()
                    elif outcome == "dropped":
                        dropped.inc()
                    else:
                        settled.labels(outcome).inc()

                network.on_packet_admitted.append(_on_admitted)
                network.on_packet_settled.append(_on_settled)
            transport = getattr(transport, "inner", None)
            seen += 1

    def wrap_store(self, store: Optional[StateStore]
                   ) -> Optional[StateStore]:
        """The store behind a latency-recording interposition."""
        if store is None:
            return None
        return ObservedStore(store, self)

    def health_sink(self) -> Optional[StreamingHealthSink]:
        """The streaming SLO sink (``None`` when no rules configured)."""
        return self._slo_sink

    @property
    def violations(self) -> List[SloViolation]:
        """All SLO violations fired so far (empty without rules)."""
        return [] if self._slo_sink is None else self._slo_sink.violations

    # ------------------------------------------------------------------
    # Hot-path hooks (called behind ``obs.enabled`` branches)
    # ------------------------------------------------------------------
    def trace_round(self, round_index: int, worker: str = "0",
                    **attrs: object):
        """Span context for one collection round on one worker."""
        return self.tracer.trace_round(round_index, worker=worker, **attrs)

    def trace_shard(self, round_span: Span, shard_index: int,
                    **attrs: object):
        """Span context for one shard of an open round."""
        return self.tracer.trace_shard(round_span, shard_index, **attrs)

    def verify_observer(self, shard_label: str):
        """The verify-latency histogram child for one shard worker."""
        return self.device_verify_seconds.labels(shard_label)

    def record_device_verify(self, shard_span: Span, device_id: str,
                             status: str) -> None:
        """One device verified under an open shard span (lean append)."""
        self.tracer.record_device_verify(shard_span, device_id, status)

    def report_committed(self, report) -> None:
        """Count one committed report by status."""
        status = report.status.value
        child = self._status_children.get(status)
        if child is None:
            child = self.reports_total.labels(status)
            self._status_children[status] = child
        child.inc()

    def round_finished(self, stats) -> None:
        """Fold one finished round's mechanics into the counters."""
        self.rounds_total.inc()
        self.requests_sent_total.inc(stats.requests_sent)
        if stats.responses_lost:
            self.responses_lost_total.inc(stats.responses_lost)
        if stats.stale_responses_rejected:
            self.stale_responses_total.inc(stats.stale_responses_rejected)
        self.round_wall_seconds.observe(stats.wall_seconds)

    def cell_finished(self, wall_seconds: float, skipped_rounds: int = 0,
                      recovered_rounds: int = 0) -> None:
        """Fold one finished campaign cell into the counters."""
        self.campaign_cells_total.inc()
        self.campaign_cell_seconds.observe(wall_seconds)
        if skipped_rounds:
            self.campaign_rounds_skipped_total.inc(skipped_rounds)
        if recovered_rounds:
            self.campaign_rounds_recovered_total.inc(recovered_rounds)

    # ------------------------------------------------------------------
    # Campaign cells
    # ------------------------------------------------------------------
    def for_cell(self, cell: str) -> "Observability":
        """A child ``Observability`` for one campaign cell.

        The child gets its own registry and its own tracer, seeded by
        :func:`~repro.obs.tracing.derive_child_seed` from this
        instance's seed and the cell label — so concurrent cells never
        interleave spans in one shared tracer, and a re-run campaign
        reproduces every cell's trace byte for byte.  Fold the child's
        numbers back with :meth:`absorb_cell` once the cell finishes.
        """
        return Observability(
            seed=derive_child_seed(self.tracer.seed, cell), cell=cell)

    def absorb_cell(self, child: "Observability") -> None:
        """Aggregate one finished cell's metrics into this registry.

        Absorbed families land in the ``repro_cell_*`` namespace with
        a ``cell`` label (see :meth:`MetricsRegistry.absorb
        <repro.obs.metrics.MetricsRegistry.absorb>`), so a campaign
        exposition carries per-cell series next to the parent's own.
        Absorb each cell exactly once.
        """
        self.registry.absorb(child.registry, "cell",
                             child.cell if child.cell is not None
                             else "cell")

    # ------------------------------------------------------------------
    # Serving and export
    # ------------------------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 0
              ) -> MetricsServer:
        """Start (or return) the HTTP scrape endpoint."""
        if self._server is None or self._server.closed:
            self._server = MetricsServer(self.registry, host=host,
                                         port=port, health=self._slo_sink)
        return self._server

    def write_trace(self, path: str) -> int:
        """Export the span trace as JSONL; returns the row count."""
        return self.tracer.write_jsonl(path)

    def report(self, title: str = "trace"):
        """Analyze this instance's trace and registry as an
        :class:`~repro.obs.report.ObsReport`."""
        from repro.obs.report import ObsReport
        return ObsReport(self.tracer.export_rows(), registry=self.registry,
                         title=title)

    def close(self) -> None:
        """Stop the scrape endpoint (idempotent)."""
        if self._server is not None:
            self._server.close()


class NullObservability(Observability):
    """The disabled default: every hook is an inert no-op.

    Instrumented code paths test ``obs.enabled`` exactly once per
    shard/report and skip the hooks entirely, so a fleet provisioned
    without observability runs the historical instruction stream; the
    methods below exist only so direct calls are harmless.
    """

    enabled = False
    cell = None

    def __init__(self) -> None:  # noqa: D401 — deliberately builds nothing
        # No registry, tracer or sink: the null object must cost nothing
        # to construct and nothing to carry.
        self._server = None

    def bind_engine(self, engine) -> None:
        del engine

    def attach_transport(self, transport) -> None:
        del transport

    def wrap_store(self, store):
        return store

    def health_sink(self):
        return None

    @property
    def violations(self):
        return []

    def trace_round(self, round_index: int, worker: str = "0",
                    **attrs: object):
        del round_index, worker, attrs
        return nullcontext()

    def trace_shard(self, round_span, shard_index: int, **attrs: object):
        del round_span, shard_index, attrs
        return nullcontext()

    def verify_observer(self, shard_label: str):
        del shard_label
        return None

    def record_device_verify(self, shard_span, device_id, status) -> None:
        del shard_span, device_id, status

    def report_committed(self, report) -> None:
        del report

    def round_finished(self, stats) -> None:
        del stats

    def cell_finished(self, wall_seconds: float, skipped_rounds: int = 0,
                      recovered_rounds: int = 0) -> None:
        del wall_seconds, skipped_rounds, recovered_rounds

    def for_cell(self, cell: str) -> "NullObservability":
        # A null parent begets null cells: the campaign stays dark.
        del cell
        return self

    def absorb_cell(self, child) -> None:
        del child

    def report(self, title: str = "trace"):
        raise RuntimeError(
            "NullObservability records nothing to report on; construct "
            "a real Observability() first")

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        raise RuntimeError(
            "NullObservability has nothing to serve; construct a real "
            "Observability() and pass it to Fleet.provision(obs=...)")

    def write_trace(self, path: str) -> int:
        del path
        return 0

    def close(self) -> None:
        pass


#: Shared inert instance used as the default everywhere ``obs=`` is
#: accepted; callers must treat it as immutable.
NULL_OBSERVABILITY = NullObservability()
