"""The fleet attestation service: enrollment, batched collection, reports.

This is the canonical public API for running ERASMUS at fleet scale:

* :class:`FleetVerifier` — enrolls any number of provers and runs
  batched/sharded collection rounds over a :class:`~repro.fleet.transport.
  Transport`, streaming every :class:`VerificationReport` to the
  configured sinks and into a running :class:`FleetHealth` aggregate;
* :class:`Fleet` — the one-call facade: provision ``count`` devices
  from a :class:`DeviceProfile`, wire them to a transport and a shared
  simulation engine, and expose ``run_until`` / ``collect_all``.

Every collection is judged by the device's precompiled
:class:`repro.core.verification.DeviceJudge` over the stateless
:class:`repro.core.verification.VerificationCore`, through the
:class:`repro.core.verification.DeviceJudges` decode-and-judge path a
process worker runs too.
"""

from __future__ import annotations

import asyncio
import functools
import time as _time
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Union,
)

from repro.core.config import ErasmusConfig
from repro.core.protocol import (
    CollectRequest,
    CollectResponse,
    decode_response,
)
from repro.core.verification import (
    DeviceJudges,
    DeviceStatus,
    DuplicateEnrollmentError,
    Enrollment,
    VerificationCore,
    VerificationReport,
)
from repro.fleet.profiles import DeviceProfile, ProvisionedDevice
from repro.fleet.sinks import ReportSink, RoundStats, SinkFanout
from repro.fleet.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    SocketTransport,
    SwarmRelayTransport,
    Transport,
)
from repro.fleet.workers import WorkerCrashed, WorkerPool
from repro.sim.engine import SimulationEngine
from repro.store import MemoryStore, StateStore
from repro.worker.health import FleetHealth
from repro.worker.process import decode_result

if TYPE_CHECKING:  # pragma: no cover — import cycle broken at runtime
    from repro.obs.service import Observability


def _default_obs() -> "Observability":
    """The shared inert observability object.

    Imported lazily: ``repro.obs`` itself imports ``repro.fleet.sinks``
    (SLO rules stream over the report fanout), so a module-level import
    here would close an import cycle.  By the time any verifier is
    *constructed* both packages are fully initialized.
    """
    from repro.obs.service import NULL_OBSERVABILITY
    return NULL_OBSERVABILITY


#: Default number of devices verified per shard of a collection round.
DEFAULT_BATCH_SIZE = 256

#: Number of shards each partition of a round keeps in flight at once.
MAX_INFLIGHT_SHARDS = 4


class RoundReports(List[VerificationReport]):
    """One round's reports, with the round's :class:`RoundStats` attached.

    A plain list everywhere a list was expected historically; the
    collection mechanics ride along on :attr:`stats`.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stats = RoundStats()

    def __repr__(self) -> str:
        # Kept short: asyncio.run formats the finished round task, its
        # result included, each time it restores the SIGINT handler.
        # A list repr there would format every report of the round.
        return f"<RoundReports: {len(self)} report(s)>"


def _ensure_no_running_loop(hint: str) -> None:
    """Refuse to run a blocking round body inside an event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise RuntimeError(
        f"collect_all would block the running event loop; {hint}")


class FleetVerifier:
    """A verifier service managing an enrolled fleet of provers.

    ``schedule_tolerance`` and ``allowed_missing`` are the
    :class:`~repro.core.verification.VerificationCore` policy knobs;
    ``sinks`` is any iterable of :class:`ReportSink` that each finished
    report is streamed to, in each round's device order.

    ``store`` selects the :class:`repro.store.StateStore` backend the
    verifier's state is committed through — every enrollment and
    re-enrollment is journaled, every finished report is journaled
    (its row carries the ``last_seen`` advance it causes), and the
    enrollments and aggregate :class:`FleetHealth` are checkpointed at
    the end of each collection round.  A round commits each shard
    batch's report rows as one :meth:`StateStore.batch`, before any of
    them reaches a sink.  The default :class:`repro.store.
    MemoryStore` keeps the historical in-process behaviour; pass a
    :class:`repro.store.JsonlStore` or :class:`repro.store.SqliteStore`
    to make the deployment restartable via :meth:`restore`.

    ``obs`` attaches a :class:`repro.obs.Observability` to the
    collection hot path: per-device verify latency histograms, round
    counters and span traces.  The default (``None`` →
    :data:`repro.obs.NULL_OBSERVABILITY`) keeps every instrumented
    path at historical cost behind a single ``enabled`` test.

    ``shards`` cuts every round into that many partitions; sharding
    decides only where a round's verification runs.  Device ``i`` of a
    round's device list goes to partition ``i % shards`` (round-robin
    in enrollment order for a whole-fleet round), and every partition
    drains its own in-flight window on the round's one event loop; on
    the simulated network the partitions overlap in virtual time.
    Everything else stays single: one store, one :class:`FleetHealth`,
    one :class:`RoundStats` per round, one sink fan-out fed in device
    order and one checkpoint, so reports, health and store state are
    byte-identical at any shard count.

    ``worker_mode`` selects where partition batches are verified:

    * ``"loop"`` (the default) — inline, between awaits.  On CPython
      this is the fast choice for ERASMUS verification, whose hot path
      is pure Python plus small-buffer C crypto that never releases the
      GIL.
    * ``"process"`` — partition ``s`` in slot ``s`` of a pool of
      spawned worker *processes* (see :mod:`repro.fleet.workers`): the
      HMAC-heavy verify loop runs outside this process's GIL entirely,
      fed over binary pipes with zero-copy payload views on the worker
      side.  The parent keeps the store, sinks and enrollments; workers
      ship report rows and exact :class:`FleetHealth` parts home, so
      health stays byte-identical to ``"loop"`` mode.  Workers spawn
      lazily on the first round (or :meth:`warm_up`); every slot
      mirrors every enrollment, re-shipped only when keys or whitelists
      change, and a crashed worker's outstanding batches finish as
      lost devices before it rejoins the next round.
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 sinks: Iterable[ReportSink] = (),
                 store: Optional[StateStore] = None,
                 obs: Optional["Observability"] = None,
                 shards: int = 1,
                 worker_mode: str = "loop") -> None:
        if shards < 1:
            raise ValueError("a verifier needs at least one shard")
        if worker_mode not in ("loop", "process"):
            raise ValueError(f"unknown worker mode {worker_mode!r}; "
                             f"expected 'loop' or 'process'")
        self.config = config
        self.shards = shards
        self.worker_mode = worker_mode
        # Process-mode machinery: the pool spawns lazily on the first
        # round; _worker_sync caches (generation, enrollment epoch) per
        # slot so enrollment mirrors re-ship only when material changed
        # or the slot respawned.
        self._pool: Optional[WorkerPool] = None
        self._worker_sync: List[Optional[tuple]] = [None] * shards
        self.core = VerificationCore(config,
                                     schedule_tolerance=schedule_tolerance,
                                     allowed_missing=allowed_missing)
        self.store: StateStore = store if store is not None else MemoryStore()
        self._enrollments: Dict[str, Enrollment] = {}
        self._last_collection_time: Dict[str, float] = {}
        # Bumped whenever a device's key or digest whitelist changes (not
        # on last-seen advances); worker pools key their enrollment
        # mirrors on this so re-syncs only happen when material changed.
        self._enrollment_epoch = 0
        self.sinks: List[ReportSink] = list(sinks)
        self.health = FleetHealth()
        self.rounds_completed = 0
        self.obs = obs if obs is not None else _default_obs()
        # Per-device precompiled fast verification paths (see
        # DeviceJudges); rebuilt transparently if a re-enrollment
        # replaces a device's key.
        self._judges = DeviceJudges(self.core)
        self._closed = False

    @classmethod
    def restore(cls, config: ErasmusConfig, store: StateStore,
                schedule_tolerance: float = 0.25,
                allowed_missing: int = 0,
                sinks: Iterable[ReportSink] = ()) -> "FleetVerifier":
        """Resume a deployment from a store's snapshot and journal.

        Replays the store's last checkpoint plus any journaled reports
        beyond it, so the returned verifier carries the pre-crash
        enrollments (keys, digests *and* last-seen timestamps), the
        aggregate :class:`FleetHealth` and per-device collection times.
        The store stays attached: new state keeps being committed
        through it.
        """
        state = store.restore_state()
        verifier = cls(config, schedule_tolerance=schedule_tolerance,
                       allowed_missing=allowed_missing, sinks=sinks,
                       store=store)
        # Installed directly — these records came *from* the store, so
        # writing them back through it would be a redundant journal round.
        verifier._enrollments = dict(state.enrollments)
        verifier._last_collection_time = dict(state.last_collection_times)
        verifier.health = state.health
        verifier.rounds_completed = state.rounds_completed
        return verifier

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, device_id: str, key: bytes,
               healthy_digests: Iterable[bytes]) -> None:
        """Register a prover: its shared key and its known-good states.

        The low-level primitive: it *replaces* any existing enrollment,
        resetting ``last_seen``, the digest whitelist and the last
        collection time, in the attached store too.
        :meth:`enroll_device` guards against accidental re-enrollment.
        """
        self._last_collection_time.pop(device_id, None)
        enrollment = Enrollment.create(device_id, key, healthy_digests)
        previous = self._enrollments.get(device_id)
        key_changed = previous is not None and not \
            self.core.crypto_backend.compare_digests(previous.key,
                                                     enrollment.key)
        if (previous is None or key_changed
                # Whitelist *change detection* over public software-state
                # digest sets, not an authentication decision:
                # statics: ok(constant-time)
                or previous.healthy_digests != enrollment.healthy_digests):
            self._enrollment_epoch += 1
        self._enrollments[device_id] = enrollment
        self.store.save_enrollment(enrollment)

    def enroll_device(self, device: ProvisionedDevice, *,
                      re_enroll: bool = False) -> None:
        """Register a provisioned device (key and healthy digest bundled).

        Enrolling an already-enrolled device raises
        :class:`DuplicateEnrollmentError` — overwriting would silently
        reset the device's last-seen timestamp and digest whitelist.
        The check consults the attached store as well as this process's
        enrollments, so re-provisioning over an existing durable state
        directory (instead of :meth:`restore`-ing from it) fails loudly
        rather than erasing the rollback-detecting state.  Pass
        ``re_enroll=True`` to replace the enrollment deliberately
        (e.g. after re-provisioning the physical unit).
        """
        already = self.is_enrolled(device.device_id) or \
            self.store.has_enrollment(device.device_id)
        if already and not re_enroll:
            raise DuplicateEnrollmentError(
                f"device {device.device_id!r} is already enrolled (in this "
                f"verifier or its attached store); use FleetVerifier."
                f"restore to resume a deployment, or pass re_enroll=True "
                f"to deliberately replace the key, digest whitelist and "
                f"last-seen state")
        self.enroll(device.device_id, device.key, [device.healthy_digest])

    def is_enrolled(self, device_id: str) -> bool:
        """True when the device has been enrolled."""
        return device_id in self._enrollments

    def healthy_digests(self, device_id: str) -> frozenset[bytes]:
        """The whitelisted software states for one device."""
        return self._enrollment_for(device_id).healthy_digests

    def last_seen(self, device_id: str) -> Optional[float]:
        """Newest measurement timestamp accepted from one device."""
        return self._enrollment_for(device_id).last_seen

    def _enrollment_for(self, device_id: str) -> Enrollment:
        try:
            return self._enrollments[device_id]
        except KeyError as exc:
            raise KeyError(f"device {device_id!r} is not enrolled") from exc

    def enrolled_ids(self) -> List[str]:
        """All enrolled device ids, in enrollment order."""
        return list(self._enrollments)

    @property
    def device_count(self) -> int:
        """Number of enrolled devices."""
        return len(self._enrollments)

    def add_sink(self, sink: ReportSink) -> None:
        """Attach one more report sink."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------
    # Single-response verification
    # ------------------------------------------------------------------
    def create_collect_request(self, k: Optional[int] = None
                               ) -> CollectRequest:
        """Build a plain collection request (no authentication needed)."""
        if k is None:
            k = self.config.measurements_per_collection
        return CollectRequest(k=k)

    def verify_collection(self, device_id: str, response: CollectResponse,
                          collection_time: float) -> VerificationReport:
        """Verify, commit and emit one plain ERASMUS collection (Fig. 2).

        Judged by the device's :class:`DeviceJudge`, the path a round
        takes, and committed like a one-report round shard.
        """
        report = self._judges.judge(self._enrollment_for(device_id),
                                    response.measurements, collection_time)
        self._commit_batch([report])
        for sink in self.sinks:
            sink.emit(report)
        return report

    def _verify_payload(self, device_id: str, payload: Optional[bytes],
                        collection_time: float) -> VerificationReport:
        """Judge one raw transport response (``None`` = never answered)."""
        return self._judges.verify_payload(self._enrollment_for(device_id),
                                           payload, collection_time,
                                           decode_response)

    def _commit_batch(self, reports: List[VerificationReport],
                      part: Optional[FleetHealth] = None,
                      done: Optional[List[VerificationReport]] = None
                      ) -> List[VerificationReport]:
        """Journal and advance the batch as one store unit, then count it.

        Every report is journaled *before* its in-memory advance, inside
        one :meth:`StateStore.batch`.  The report row is the durable
        record of the advance: it carries the collection time and the
        newest timestamp that replay advances ``last_seen`` to, so the
        batch writes report rows and nothing else, and the store never
        holds an advance without its report.
        Only once the batch's exit has returned are the reports
        aggregated, observed and appended to ``done``; sinks are fed by
        the caller after that (a round emits in device order).
        Without a ``part`` each report is recorded into :attr:`health`;
        a round's verify step instead brings the batch's exact
        :class:`FleetHealth` ``part``, merged once.  If a write fails
        mid-batch, the batch exit still commits the reports written
        before it, and exactly those count; if that commit fails too,
        none of the batch counts, and the in-memory advances it made are
        undone so the live state matches the rolled-back store.
        """
        store = self.store
        written = 0
        failure: Optional[BaseException] = None
        # Each touched device's state before the batch, for the undo.
        before: Dict[str, tuple] = {}
        try:
            with store.batch():
                try:
                    for report in reports:
                        store.append_report(report)
                        device_id = report.device_id
                        if device_id not in before:
                            before[device_id] = (
                                self._enrollments.get(device_id),
                                self._last_collection_time.get(device_id))
                        self._advance_bookkeeping(report)
                        written += 1
                except BaseException as exc:
                    failure = exc
                    raise
        except BaseException as exc:
            if exc is not failure:
                written = 0  # the batch's own commit failed
                self._undo_advances(before)
            # The part covers the whole batch: record only what landed.
            self._count_committed(reports[:written], None, done)
            raise
        self._count_committed(reports, part, done)
        return reports

    def _undo_advances(self, before: Mapping[str, tuple]) -> None:
        """Put back each device's enrollment and collection time."""
        for device_id, (enrollment, collected) in before.items():
            if enrollment is not None:
                self._enrollments[device_id] = enrollment
            if collected is None:
                self._last_collection_time.pop(device_id, None)
            else:
                self._last_collection_time[device_id] = collected

    def _count_committed(self, reports: List[VerificationReport],
                         part: Optional[FleetHealth],
                         done: Optional[List[VerificationReport]]) -> None:
        """Fold durable reports into health, metrics and ``done``."""
        if part is None:
            for report in reports:
                self.health.record(report)
        else:
            self.health.merge(part)
        if self.obs.enabled:
            for report in reports:
                self.obs.report_committed(report)
        if done is not None:
            done.extend(reports)

    def _advance_bookkeeping(self, report: VerificationReport) -> None:
        """Record the collection time and newest-seen timestamp in memory.

        Only collections that actually carried measurements advance the
        per-device state — an empty or unanswered round proves nothing
        about which records already reached the verifier.  Nothing is
        written to the store: the journaled report row already carries
        the advance, and restore replays it from there.
        """
        if not report.measurement_count:
            return
        enrollment = self._enrollments[report.device_id]
        advanced = self.core.advance_last_seen(report, enrollment.last_seen)
        if advanced is not None:
            self._enrollments[report.device_id] = enrollment.advanced(advanced)
        self._last_collection_time[report.device_id] = report.collection_time

    def apply_worker_batch(self, report_rows: Iterable[Mapping[str, object]],
                           health_row: Mapping[str, object],
                           done: Optional[List[VerificationReport]] = None
                           ) -> List[VerificationReport]:
        """Commit one process-worker task's results, in row order.

        Each shipped report row is journaled and advances the device's
        bookkeeping exactly as a locally verified report would; the
        task's :class:`FleetHealth` part
        folds in through :meth:`FleetHealth.merge` — the exact-Fraction
        accumulator, so the merged aggregate is byte-identical to
        recording every report here.  ``done`` is as for
        :meth:`_commit_batch`.
        """
        reports = [VerificationReport.from_row(row) for row in report_rows]
        self._commit_batch(reports, FleetHealth.from_row(health_row), done)
        return reports

    def checkpoint(self) -> None:
        """Fold the verifier's full state into a durable store snapshot.

        Called automatically at the end of every :meth:`collect_all`
        round; call it manually after out-of-band state changes (bulk
        enrollment, digest rollouts) worth persisting immediately.
        Checkpointing the same state twice produces byte-identical
        snapshots, so it is safe to call at any time.
        """
        self.store.checkpoint(self._enrollments, self.health,
                              self._last_collection_time,
                              rounds_completed=self.rounds_completed)

    def close(self) -> None:
        """Close the worker pool, every sink and the store (idempotent).

        Exception-safe: the pool or one sink failing never prevents the
        remaining sinks or the store from being released; the first
        failure is re-raised once everything has been attempted, and
        re-entry is a no-op either way.
        """
        if self._closed:
            return
        self._closed = True
        first_error: Optional[BaseException] = None
        if self._pool is not None:
            try:
                self._pool.close()
            except Exception as exc:
                first_error = exc
        try:
            SinkFanout(self.sinks).close()
        except Exception as exc:
            if first_error is None:
                first_error = exc
        try:
            self.store.close()
        except Exception as exc:
            if first_error is None:
                first_error = exc
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    # Batched collection rounds
    # ------------------------------------------------------------------
    def _round_prologue(self, transport: Transport, collection_time,
                        device_ids, batch_size, k):
        """Validate a round and build its device list and request."""
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        engine = transport.engine
        if collection_time is None and engine is None:
            raise ValueError(
                "collection_time is required for transports without an "
                "engine clock")
        ids = list(device_ids) if device_ids is not None \
            else self.enrolled_ids()
        for device_id in ids:
            self._enrollment_for(device_id)
        request_bytes = self.create_collect_request(k).encode()
        return engine, ids, request_bytes

    def _finish_round(self, reports: RoundReports, stats: RoundStats,
                      transport: Transport, stale_before: int,
                      started: float) -> RoundReports:
        """Stamp the round's stats and fold state into a checkpoint."""
        ended = _time.perf_counter()
        stats.wall_start = started
        stats.wall_end = ended
        stats.stale_responses_rejected = \
            transport.stale_responses_rejected - stale_before
        reports.stats = stats
        self.rounds_completed += 1
        if self.obs.enabled:
            self.obs.round_finished(stats)
        self.checkpoint()
        return reports

    def collect_all(self, transport: Transport,
                    collection_time: Optional[float] = None,
                    k: Optional[int] = None,
                    device_ids: Optional[Iterable[str]] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE
                    ) -> RoundReports:
        """Run one collection round over (a subset of) the fleet.

        A thin synchronous shim: it drives the awaitable
        :meth:`collect_all_async` pipeline to completion on a private
        event loop, so wire exchange, verification and sink fan-out
        overlap per shard.  Reports come back as a plain list (with the
        round's :class:`~repro.fleet.sinks.RoundStats` on ``.stats``),
        committed in deterministic device order.

        With ``collection_time=None`` (the default) each batch is
        verified at the transport engine's clock *after* its exchange,
        so measurements taken while packets were in flight are never
        misjudged as "from the future".  Pass an explicit time only for
        engineless transports or deliberately retrospective audits.

        Sinks are guarded by a :class:`~repro.fleet.sinks.SinkFanout`:
        a clean round flushes them, a transport failure mid-round
        flushes *and closes* them so already-verified reports reach
        disk before the exception propagates.  A finished round also
        folds the verifier state into a store snapshot (see
        :meth:`checkpoint`).
        """
        _ensure_no_running_loop("await collect_all_async(...) instead")
        return asyncio.run(self.collect_all_async(
            transport, collection_time, k=k, device_ids=device_ids,
            batch_size=batch_size))

    @staticmethod
    def _count_batch(stats: RoundStats, batch: List[str],
                     responses: Mapping[str, Optional[bytes]]) -> None:
        """Fold one exchanged batch into the round's counters."""
        stats.requests_sent += len(batch)
        received = sum(1 for device_id in batch
                       if responses.get(device_id) is not None)
        stats.responses_received += received
        stats.responses_lost += len(batch) - received

    async def collect_all_async(self, transport: Transport,
                                collection_time: Optional[float] = None,
                                k: Optional[int] = None,
                                device_ids: Optional[Iterable[str]] = None,
                                batch_size: int = DEFAULT_BATCH_SIZE
                                ) -> RoundReports:
        """One collection round as an asyncio pipeline.

        The round is cut into shards of ``batch_size`` devices; up to
        :data:`MAX_INFLIGHT_SHARDS` shards per partition are in flight
        at once, each
        exchanging through :meth:`Transport.exchange_many_async` and
        verifying its payloads — through the precompiled per-device
        judges, inline between awaits — as soon as *its* exchange
        settles, while later shards' packets are still on the wire.
        Commits (store journal, health aggregate, sink fan-out) happen
        in shard order, so the report list is deterministic and in
        device order.

        On an engine-clock transport each shard's ``collection_time``
        is the engine clock at *its* settlement, so overlapping shards
        are stamped as fresh as their own exchange.  On a transport
        whose exchange is natively awaitable, such as the simulated
        network, the shards genuinely overlap in virtual time.
        """
        return await self._run_round(transport, collection_time, k,
                                     device_ids, batch_size)

    def warm_up(self) -> None:
        """Spawn worker processes and ship enrollments ahead of a round.

        Process mode pays its one-time costs — spawning the workers
        (interpreter + import per process) and shipping the enrollment
        mirrors — lazily inside the first ``collect_all``.  Call this
        first to take that cold start out of the first round's latency
        (benchmarks measure steady-state rounds this way).  No-op in
        ``"loop"`` mode.
        """
        if self.worker_mode == "process":
            asyncio.run(self._round_pool())

    async def _round_pool(self) -> Optional[WorkerPool]:
        """The synced worker pool a round verifies in; ``None`` = inline.

        In process mode, spawns/respawns slots and re-ships changed
        enrollment mirrors.
        """
        if self.worker_mode != "process":
            return None
        if self._pool is None:
            self._pool = WorkerPool(
                self.shards, config=self.config,
                schedule_tolerance=self.core.schedule_tolerance,
                allowed_missing=self.core.allowed_missing, obs=self.obs)
        pool = self._pool
        # Spawn every slot before shipping: a mirror larger than the
        # pipe buffer blocks its send until that worker has started.
        generations = [pool.ensure_worker(slot)
                       for slot in range(self.shards)]
        rows = None
        waits = []
        slots = []
        for slot, generation in enumerate(generations):
            key = (generation, self._enrollment_epoch)
            if self._worker_sync[slot] != key:
                if rows is None:
                    rows = [enrollment.to_row()
                            for enrollment in self._enrollments.values()]
                waits.append(asyncio.wrap_future(
                    pool.sync_enrollments(slot, rows)))
                slots.append(slot)
                self._worker_sync[slot] = key
        results = await asyncio.gather(*waits, return_exceptions=True)
        for slot, result in zip(slots, results):
            if isinstance(result, BaseException):
                # The slot died before acking; forget the sync so the
                # next round re-ships after the respawn.  This round's
                # tasks to it fail fast as WorkerCrashed (lost devices).
                self._worker_sync[slot] = None
        return pool

    async def _run_round(self, transport: Transport,
                         collection_time: Optional[float],
                         k: Optional[int],
                         device_ids: Optional[Iterable[str]],
                         batch_size: int) -> RoundReports:
        """The windowed round every collection path runs.

        The round's device list is cut into :attr:`shards` partitions,
        ``ids[s::shards]``, and each partition into shards of
        ``batch_size`` devices.  Every partition runs its own window:
        at most :data:`MAX_INFLIGHT_SHARDS` shards exchange concurrently
        and commit in shard order.  All windows share one
        :class:`RoundStats`, one sink fan-out and one checkpoint.  Only
        the verify step varies: without a worker pool
        (:meth:`_round_pool`) each shard is judged inline
        (:meth:`_verify_inline`); with one, partition ``s`` is shipped
        to slot ``s`` (:meth:`_verify_in_worker`).

        Sinks receive reports in the round's device order: a report is
        emitted once every report ahead of it has committed.  On
        failure or cancellation the in-flight shard tasks are cancelled
        and awaited, the committed reports not yet emitted reach the
        sinks in order, and the error propagates; the sinks the fan-out
        closed are pruned.
        """
        engine, ids, request_bytes = self._round_prologue(
            transport, collection_time, device_ids, batch_size, k)
        stale_before = transport.stale_responses_rejected
        started = _time.perf_counter()
        pool = await self._round_pool()
        verify = self._verify_inline if pool is None else \
            functools.partial(self._verify_in_worker, pool)
        # Every partition's shards, each as (round positions, device ids).
        layout = []
        for partition in range(self.shards):
            positions = range(partition, len(ids), self.shards)
            members = ids[partition::self.shards]
            layout.append([(positions[start:start + batch_size],
                            members[start:start + batch_size])
                           for start in range(0, len(members), batch_size)])
        stats = RoundStats(shards=sum(map(len, layout)))
        reports = RoundReports()
        committed: List[Optional[VerificationReport]] = [None] * len(ids)
        emitted = 0
        obs = self.obs
        obs_enabled = obs.enabled
        round_index = self.rounds_completed + 1

        def _emit_committed(skip_gaps: bool = False) -> None:
            """Emit, in device order, the committed reports not yet sent."""
            nonlocal emitted
            while emitted < len(committed):
                report = committed[emitted]
                if report is None and not skip_gaps:
                    return
                emitted += 1
                if report is not None:
                    reports.append(report)
                    for sink in self.sinks:
                        sink.emit(report)

        async def _collect_shard(partition: int, shard: List[str],
                                 shard_index: int, round_span):
            shard_cm = obs.trace_shard(round_span, shard_index,
                                       devices=len(shard)) \
                if obs_enabled else nullcontext()
            with shard_cm as shard_span:
                responses = await transport.exchange_many_async(
                    {device_id: request_bytes for device_id in shard})
                shard_time = collection_time \
                    if collection_time is not None else engine.now
                received, commit = await verify(partition, shard, responses,
                                                shard_time, shard_span)
                if shard_span is not None:
                    count = sum(1 for device_id in shard
                                if received.get(device_id) is not None)
                    shard_span.attrs["received"] = count
                    shard_span.attrs["lost"] = len(shard) - count
            return received, commit

        async def _run_partition(partition: int) -> None:
            shards = layout[partition]
            in_flight: List[asyncio.Task] = []
            next_shard = 0

            def _keep_window_full() -> None:
                nonlocal next_shard
                while next_shard < len(shards) and \
                        len(in_flight) < MAX_INFLIGHT_SHARDS:
                    in_flight.append(asyncio.ensure_future(_collect_shard(
                        partition, shards[next_shard][1], next_shard,
                        round_span)))
                    next_shard += 1

            devices = sum(len(shard) for _, shard in shards)
            round_cm = obs.trace_round(round_index, worker=str(partition),
                                       devices=devices, shards=len(shards)) \
                if obs_enabled else nullcontext()
            current: Optional[asyncio.Task] = None
            try:
                with round_cm as round_span:
                    _keep_window_full()
                    for positions, shard in shards:
                        current = in_flight.pop(0)
                        received, commit = await current
                        current = None
                        _keep_window_full()
                        self._count_batch(stats, shard, received)
                        done: List[VerificationReport] = []
                        try:
                            commit(done)
                        finally:
                            for position, report in zip(positions, done):
                                committed[position] = report
                        _emit_committed()
                    if round_span is not None:
                        round_span.attrs["reports"] = devices
            except BaseException:
                # Include the task being awaited when the failure struck —
                # e.g. an external cancellation (asyncio.wait_for timeout)
                # lands mid-await, and the popped task would otherwise keep
                # driving the shared transport/engine as an orphan.
                await _cancel_all(([current] if current is not None else [])
                                  + in_flight)
                raise

        if obs_enabled:
            obs.rounds_inflight.inc()
        partitions: List[asyncio.Task] = []
        try:
            with SinkFanout(self.sinks):
                try:
                    partitions = [asyncio.ensure_future(_run_partition(index))
                                  for index in range(self.shards)]
                    await asyncio.gather(*partitions)
                except BaseException:
                    await _cancel_all(partitions)
                    try:
                        _emit_committed(skip_gaps=True)
                    except Exception:
                        pass  # the round's own failure is what propagates
                    raise
        except BaseException:
            # The fanout closed the sinks so nothing buffered was lost;
            # drop the closed ones so a retry round on this verifier
            # streams to the survivors instead of raising on dead sinks.
            self.sinks = [sink for sink in self.sinks if not sink.closed]
            raise
        finally:
            if obs_enabled:
                obs.rounds_inflight.dec()
        return self._finish_round(reports, stats, transport, stale_before,
                                  started)

    async def _verify_inline(self, partition: int, shard: List[str],
                             responses: Mapping[str, Optional[bytes]],
                             shard_time: float, shard_span):
        """Verify step: judge a settled shard here, between awaits.

        Returns the responses the shard counts as received and the
        commit to run in shard order, called with the list its
        committed reports are appended to.  Like a worker task, the shard
        aggregates into its own :class:`FleetHealth` part, which the
        commit merges.
        """
        verify = self._verify_payload
        obs = self.obs
        if obs.enabled:
            # Wall time goes only to the histogram — spans carry
            # virtual time, keeping traces byte-reproducible.
            observe = obs.verify_observer(str(partition)).observe
            perf = _time.perf_counter
            shard_reports = []
            for device_id in shard:
                verify_started = perf()
                report = verify(device_id, responses.get(device_id),
                                shard_time)
                observe(perf() - verify_started)
                obs.record_device_verify(shard_span, device_id,
                                         report.status.value)
                shard_reports.append(report)
        else:
            shard_reports = [verify(device_id, responses.get(device_id),
                                    shard_time)
                             for device_id in shard]
        part = FleetHealth()
        for report in shard_reports:
            part.record(report)
        return responses, functools.partial(self._commit_batch,
                                            shard_reports, part)

    async def _verify_in_worker(self, pool: WorkerPool, partition: int,
                                shard: List[str],
                                responses: Mapping[str, Optional[bytes]],
                                shard_time: float, _shard_span):
        """Verify step: ship a settled shard to worker slot ``partition``.

        The task carries the payloads plus each device's current
        ``last_seen``; the worker answers with report rows and one
        :class:`FleetHealth` part, committed by
        :meth:`apply_worker_batch`.  If the worker dies holding the
        batch, its responses are unverifiable: the devices are
        committed ``NO_DATA`` and counted as lost, never guessed
        healthy.  The slot is not respawned mid-round.  Per-device
        spans stay in the worker; its measured verify timings feed
        this partition's histogram.
        """
        obs = self.obs
        entries = [(device_id, responses.get(device_id),
                    self._enrollments[device_id].last_seen)
                   for device_id in shard]
        try:
            body = await asyncio.wrap_future(pool.submit_task(
                partition, shard_time, entries, want_timings=obs.enabled))
        except WorkerCrashed:
            lost = [VerificationReport(
                device_id=device_id, collection_time=shard_time,
                status=DeviceStatus.NO_DATA,
                anomalies=["shard worker crashed; response discarded"])
                for device_id in shard]
            return {}, functools.partial(self._commit_batch, lost, None)
        rows, health_row, timings = decode_result(body)

        def _commit(done: List[VerificationReport]
                    ) -> List[VerificationReport]:
            committed = self.apply_worker_batch(rows, health_row, done)
            if timings is not None:
                observe = obs.verify_observer(str(partition)).observe
                for timing in timings:
                    observe(timing)
            return committed

        return responses, _commit


async def _cancel_all(tasks: List[asyncio.Task]) -> None:
    """Cancel tasks and wait them out, swallowing what they raise."""
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except BaseException:
            pass  # the primary failure is what propagates


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------

#: Transport factories selectable by name in :meth:`Fleet.provision`.
TRANSPORT_FACTORIES: Dict[str, Callable[..., Transport]] = {
    "in-process": InProcessTransport,
    "simulated-network": SimulatedNetworkTransport,
    "swarm-relay": SwarmRelayTransport,
}
TRANSPORT_FACTORIES["socket"] = SocketTransport


class Fleet:
    """A provisioned fleet: devices, transport, engine and verifier service.

    Build one with :meth:`provision`; then alternate ``run_until`` (let
    provers self-measure on their schedules) with ``collect_all``
    (verify everyone's history).  The same scenario code runs unchanged
    over any transport.
    """

    def __init__(self, profile: DeviceProfile,
                 verifier: FleetVerifier,
                 transport: Transport, engine: SimulationEngine,
                 devices: Dict[str, ProvisionedDevice],
                 obs: Optional["Observability"] = None) -> None:
        self.profile = profile
        self.verifier = verifier
        self.transport = transport
        self.engine = engine
        self._devices = devices
        self.obs = obs if obs is not None else _default_obs()

    @classmethod
    def provision(cls, profile: DeviceProfile, count: int, *,
                  master_secret: bytes,
                  transport: Union[str, Transport,
                                   Callable[[SimulationEngine], Transport]]
                  = "in-process",
                  engine: Optional[SimulationEngine] = None,
                  sinks: Iterable[ReportSink] = (),
                  store: Optional[StateStore] = None,
                  schedule_tolerance: float = 0.25,
                  allowed_missing: int = 0,
                  stagger: bool = True,
                  start_time: float = 0.0,
                  transport_options: Optional[Mapping[str, object]] = None,
                  shards: Optional[int] = None,
                  worker_mode: str = "loop",
                  obs: Optional["Observability"] = None
                  ) -> "Fleet":
        """Provision ``count`` devices from one profile, ready to attest.

        Each device gets a key derived from ``master_secret``, an imaged
        architecture, a prover attached to the shared engine (start
        times staggered across one measurement interval unless
        ``stagger=False``, so the fleet does not measure in lockstep),
        a transport registration and a verifier enrollment.

        ``transport`` may be a factory name from
        :data:`TRANSPORT_FACTORIES`, a ready :class:`Transport`
        instance, or a callable receiving the engine.  ``store`` backs
        the verifier with a :class:`repro.store.StateStore` so the
        deployment can be resumed after a verifier restart (see
        :meth:`FleetVerifier.restore`).  ``shards`` runs the verifier's
        rounds as that many concurrent partitions (``None`` = one);
        ``worker_mode`` then selects where the partitions are verified
        (``"loop"`` or ``"process"`` — see :class:`FleetVerifier`).

        ``obs`` threads one :class:`repro.obs.Observability` through
        the whole stack: its clock binds to the fleet engine, the
        store is wrapped in a latency-recording interposition, the
        transport's packet events are hooked, the streaming SLO sink
        (when rules are configured) joins the report fanout, and the
        verifier records per-device/per-round metrics and span traces.
        ``fleet.obs.serve()`` then exposes everything over HTTP.
        """
        if count <= 0:
            raise ValueError("a fleet needs at least one device")
        if worker_mode != "loop" and shards is None:
            raise ValueError("worker_mode requires shards")
        if engine is None:
            engine = SimulationEngine()
        if obs is None:
            obs = _default_obs()
        if obs.enabled:
            obs.bind_engine(engine)
            # The default MemoryStore is materialized here (instead of
            # inside the verifier) so journal/checkpoint latency is
            # observed even without an explicit durable backend.
            store = obs.wrap_store(
                store if store is not None else MemoryStore())
        options = dict(transport_options or {})
        if isinstance(transport, str):
            try:
                factory = TRANSPORT_FACTORIES[transport]
            except KeyError as exc:
                known = ", ".join(sorted(TRANSPORT_FACTORIES))
                raise ValueError(f"unknown transport {transport!r}; "
                                 f"known: {known}") from exc
            built_transport = factory(engine, **options)
        elif isinstance(transport, Transport):
            if options:
                # A ready instance cannot absorb construction options;
                # dropping them silently would run the wrong network.
                raise ValueError(
                    "transport_options cannot be combined with a ready "
                    f"Transport instance (got {sorted(options)})")
            built_transport = transport
        else:
            built_transport = transport(engine, **options)

        round_sinks = list(sinks)
        if obs.enabled:
            obs.attach_transport(built_transport)
            slo_sink = obs.health_sink()
            if slo_sink is not None and slo_sink not in round_sinks:
                round_sinks.append(slo_sink)
        verifier = FleetVerifier(profile.config,
                                 schedule_tolerance=schedule_tolerance,
                                 allowed_missing=allowed_missing,
                                 sinks=round_sinks, store=store, obs=obs,
                                 shards=1 if shards is None else shards,
                                 worker_mode=worker_mode)
        devices: Dict[str, ProvisionedDevice] = {}
        interval = profile.config.measurement_interval
        # One store unit for the whole fleet's enrollments.
        with verifier.store.batch():
            for index in range(count):
                device_id = f"dev-{index:04d}"
                device = profile.provision(device_id,
                                           master_secret=master_secret)
                offset = start_time
                if stagger:
                    offset += (index / count) * interval
                device.prover.attach(engine, start_time=offset)
                built_transport.register(device)
                verifier.enroll_device(device)
                devices[device_id] = device
        if obs.enabled:
            # inc, not set: two fleets sharing one obs should add up.
            obs.devices_enrolled.inc(count)
        return cls(profile=profile, verifier=verifier,
                   transport=built_transport, engine=engine,
                   devices=devices, obs=obs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def device_count(self) -> int:
        """Number of provisioned devices."""
        return len(self._devices)

    def device_ids(self) -> List[str]:
        """All device ids, in provisioning order."""
        return list(self._devices)

    def device(self, device_id: str) -> ProvisionedDevice:
        """Look up one provisioned device."""
        try:
            return self._devices[device_id]
        except KeyError as exc:
            raise KeyError(f"no device {device_id!r} in this fleet") from exc

    def devices(self) -> List[ProvisionedDevice]:
        """All provisioned devices, in provisioning order."""
        return list(self._devices.values())

    @property
    def health(self) -> FleetHealth:
        """The verifier's running fleet-health aggregate."""
        return self.verifier.health

    @property
    def now(self) -> float:
        """Current virtual time of the shared engine."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> int:
        """Advance the simulation (provers self-measure on schedule)."""
        return self.engine.run(until=time)

    def collect_all(self, k: Optional[int] = None,
                    collection_time: Optional[float] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE
                    ) -> RoundReports:
        """Run one collection round over the whole fleet.

        ``collection_time=None`` stamps each batch at the engine clock
        after its exchange (see :meth:`FleetVerifier.collect_all`).
        """
        return self.verifier.collect_all(
            self.transport, collection_time, k=k, batch_size=batch_size)

    async def collect_all_async(self, k: Optional[int] = None,
                                collection_time: Optional[float] = None,
                                batch_size: int = DEFAULT_BATCH_SIZE
                                ) -> RoundReports:
        """Awaitable :meth:`collect_all` — the fleet's async pipeline.

        A sharded fleet's partitions drain concurrently on the caller's
        event loop.
        """
        return await self.verifier.collect_all_async(
            self.transport, collection_time, k=k, batch_size=batch_size)

    def close(self) -> None:
        """Close every attached report sink and the state store.

        Delegates to the verifier's own ``close``, which is idempotent
        and exception-safe: closing twice (an explicit call followed by
        context-manager exit, say) is a no-op, sinks that a failed
        round already closed are skipped harmlessly, and one sink
        failing to close never prevents the remaining sinks or the
        store from being released — the first failure is re-raised once
        everything has been attempted.
        """
        self.verifier.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
