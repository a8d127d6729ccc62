"""Fleet-collection throughput: devices per second per collection setup.

Not a paper artifact — this harness characterizes the reproduction's
own fleet service (:mod:`repro.fleet`): how fast one batched
``collect_all`` round (provision → schedule → collect → verify) runs
for a given fleet size, per transport, and how the round's
devices/second move with the collection path (single verifier,
sharded loop, worker processes), the store backend and the
observability mode.  It backs the fleet-collection, fleet-scaling,
store-overhead and obs-overhead benchmarks.

A comparison (:func:`compare`) runs its variants interleaved, the
order reversed on alternate attempts, and returns every attempt's row.
A round lasts ~100 ms and identical rounds vary by tens of percent on
a shared host, so a gate takes :func:`paired_ratios` (each variant
against the first variant of the *same* attempt) and checks their
median.  Provisioning is deterministic (profile plus master secret),
so every variant collects an identical fleet: each row carries the
SHA-256 of the merged :class:`repro.fleet.FleetHealth` row, and a
comparison raises when a row's fingerprint differs from the
baseline's — a throughput for a *different answer* is not comparable.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.fleet import DeviceProfile, Fleet
from repro.store import JsonlStore, MemoryStore, SqliteStore, StateStore

#: Transports timed by :func:`run`.
DEFAULT_TRANSPORTS: Sequence[str] = ("in-process", "simulated-network",
                                     "swarm-relay")

#: Store backends compared by :func:`run_store_comparison`; ``baseline``
#: is a plain provision call (the :class:`MemoryStore` default path).
STORE_BACKENDS: Sequence[str] = ("baseline", "memory", "jsonl", "sqlite")

#: Observability modes compared by :func:`run_obs_comparison`:
#: ``baseline`` is a plain provision call, ``null`` threads the explicit
#: :data:`repro.obs.NULL_OBSERVABILITY` through the same seams (the two
#: time the identical code path — the row pins the claim that the
#: disabled instrumentation branches cost nothing), ``observed`` runs a
#: fully enabled :class:`repro.obs.Observability` with device tracing.
OBS_MODES: Sequence[str] = ("baseline", "null", "observed")

Row = Dict[str, Any]


def default_profile() -> DeviceProfile:
    """The small SMART+ profile the throughput rows are measured with."""
    return DeviceProfile.smartplus(firmware=b"fleet-bench-firmware",
                                   application_size=512,
                                   measurement_interval=60.0,
                                   collection_interval=600.0,
                                   buffer_slots=16)


def run_round(transport: str, device_count: int, *,
              shards: Optional[int] = None,
              worker_mode: str = "loop",
              store_factory: Optional[Callable[[], StateStore]] = None,
              obs: Optional[object] = None) -> Row:
    """One full fleet round over one transport; returns a result row.

    ``shards`` and ``worker_mode`` pick the collection path (see
    :meth:`repro.fleet.Fleet.provision`); ``store_factory`` builds a
    fresh :class:`repro.store.StateStore` for this round, so the row
    includes that backend's write-through and checkpoint cost; ``obs``
    is threaded through ``Fleet.provision(obs=...)`` so the row carries
    that observability mode's instrumentation cost.  The row's
    ``health_sha256`` fingerprints the merged fleet-health row.
    """
    profile = default_profile()
    horizon = profile.config.collection_interval
    store = store_factory() if store_factory is not None else None
    fleet: Optional[Fleet] = None
    started = time.perf_counter()
    try:
        fleet = Fleet.provision(profile, device_count,
                                master_secret=b"fleet-bench-master-secret",
                                transport=transport, store=store,
                                shards=shards, worker_mode=worker_mode,
                                obs=obs)
        provisioned = time.perf_counter()
        fleet.run_until(horizon)
        # Spawn process workers and ship enrollments outside the collect
        # window: the row characterizes a steady-state round, not the
        # one-time process cold start.
        fleet.verifier.warm_up()
        # Provisioning and measuring allocate millions of objects; sweep
        # the resulting garbage *before* the collect window so a stray
        # gen-2 GC pause (~tens of ms, comparable to the whole round)
        # does not land inside whichever variant happens to trigger it.
        gc.collect()
        measured = time.perf_counter()
        reports = fleet.collect_all()
        finished = time.perf_counter()
        sim_round_trip = fleet.now - horizon
        health_row = json.dumps(fleet.verifier.health.to_row(),
                                sort_keys=True).encode("utf-8")
    finally:
        # Release store handles (journal stream / DB connection) and
        # worker processes even when the round fails mid-way.
        if fleet is not None:
            fleet.close()
        elif store is not None:
            store.close()

    healthy = sum(1 for report in reports if not report.detected_infection())
    stats = reports.stats
    wall_time = finished - started
    return {
        "transport": fleet.transport.name,
        "worker_mode": worker_mode,
        "shards": 1 if shards is None else shards,
        "devices": device_count,
        "reports": len(reports),
        "healthy": healthy,
        "requests_sent": stats.requests_sent,
        "responses_lost": stats.responses_lost,
        "stale_responses_rejected": stats.stale_responses_rejected,
        "provision_s": provisioned - started,
        "measure_s": measured - provisioned,
        "collect_s": stats.wall_seconds,
        "wall_time_s": wall_time,
        "devices_per_second": device_count / wall_time if wall_time else 0.0,
        "collect_devices_per_second": stats.devices_per_second,
        "sim_round_trip_s": sim_round_trip,
        "health_sha256": hashlib.sha256(health_row).hexdigest(),
    }


def compare(variants: Sequence[str], attempts: int,
            attempt: Callable[[str, int], Row]) -> List[Row]:
    """Every attempt's row, variants interleaved: A B C, C B A, A B C ...

    ``attempt(variant, index)`` runs one round and returns its row,
    which is labelled with ``variant`` and ``attempt``.  Interleaving,
    and reversing the order on alternate attempts, spreads slow
    stretches of a shared host over every variant and every position
    instead of charging them to whichever ran during one; the
    ``gc.collect()`` before each attempt keeps an earlier attempt's
    garbage out of the next one's round.  The first variant is the
    baseline of :func:`paired_ratios`.  Raises ``AssertionError`` as
    soon as a row's health fingerprint differs from the baseline's.
    """
    if attempts <= 0:
        raise ValueError("attempts must be positive")
    # Pay the one-time process-wide asyncio bootstrap (selector import,
    # first loop construction) outside the measured rows.
    asyncio.run(asyncio.sleep(0))
    rows: List[Row] = []
    for index in range(attempts):
        order = variants if index % 2 == 0 else variants[::-1]
        for variant in order:
            gc.collect()
            row = attempt(variant, index)
            row["variant"] = variant
            row["attempt"] = index
            if rows and row["health_sha256"] != rows[0]["health_sha256"]:
                raise AssertionError(
                    f"{variant} (attempt {index}) produced a different "
                    f"merged FleetHealth than {rows[0]['variant']}")
            rows.append(row)
    return rows


def paired_ratios(rows: Sequence[Row], key: str) -> List[Dict[str, float]]:
    """Per attempt, each variant's ``key`` over the baseline's ``key``.

    The baseline is the first row's variant; every ratio divides by the
    baseline row of the *same* attempt, so host drift between attempts
    cancels out of the pair.
    """
    baseline = rows[0]["variant"]
    attempts: Dict[int, Dict[str, float]] = {}
    for row in rows:
        attempts.setdefault(row["attempt"], {})[row["variant"]] = \
            float(row[key])
    return [{variant: value / values[baseline]
             for variant, value in values.items()}
            for values in attempts.values()]


def run_scaling_comparison(device_count: int = 1000,
                           worker_counts: Sequence[int] = (1, 2, 4),
                           attempts: int = 3) -> List[Row]:
    """The scaling ladder: single verifier, then sharded loop and process.

    ``async-baseline`` is the pipelined single-verifier ``collect_all``;
    ``sharded-loop-wN`` runs N partitions on one event loop and
    ``sharded-process-wN`` verifies them in N spawned worker processes.
    """
    ladder: Dict[str, Dict[str, Any]] = {"async-baseline": {}}
    # Process rows next to the baseline: the pairs a scaling gate
    # divides then run closest together in time.
    for workers in worker_counts:
        ladder[f"sharded-process-w{workers}"] = dict(
            shards=workers, worker_mode="process")
    for workers in worker_counts:
        ladder[f"sharded-loop-w{workers}"] = dict(shards=workers)
    return compare(list(ladder), attempts, lambda variant, _index:
                   run_round("in-process", device_count, **ladder[variant]))


def _store_factory(backend: str, directory: Path, attempt: int
                   ) -> Optional[Callable[[], StateStore]]:
    """A fresh-store factory for one benchmark attempt (or ``None``)."""
    if backend == "baseline":
        return None
    if backend == "memory":
        return MemoryStore
    if backend == "jsonl":
        return lambda: JsonlStore(directory / f"jsonl-{attempt}")
    if backend == "sqlite":
        directory.mkdir(parents=True, exist_ok=True)
        return lambda: SqliteStore(directory / f"store-{attempt}.sqlite")
    raise ValueError(f"unknown store backend {backend!r}")


def run_store_comparison(device_count: int = 300,
                         directory: Optional[str] = None,
                         attempts: int = 3) -> List[Row]:
    """One in-process round per store backend and attempt.

    Every attempt gets a fresh store, so no backend ever replays a
    previous attempt's state; the state files live in a fresh
    subdirectory of ``directory`` (default: the system temp
    directory), removed afterwards — the result is the rows.
    """
    if directory is not None:
        Path(directory).mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="erasmus-store-bench-",
                                 dir=directory))
    try:
        return compare(STORE_BACKENDS, attempts, lambda backend, index:
                       run_round("in-process", device_count,
                                 store_factory=_store_factory(
                                     backend, base / backend, index)))
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _obs_for_mode(mode: str) -> Optional[object]:
    """A fresh observability object for one benchmark attempt."""
    if mode == "baseline":
        return None
    # Imported here, not at module top: the experiments package predates
    # repro.obs and must stay importable if the subsystem is trimmed.
    from repro.obs import NULL_OBSERVABILITY, Observability
    if mode == "null":
        return NULL_OBSERVABILITY
    if mode == "observed":
        return Observability(seed=0)
    raise ValueError(f"unknown observability mode {mode!r}")


def run_obs_comparison(device_count: int = 1000,
                       attempts: int = 3) -> List[Row]:
    """One in-process round per observability mode and attempt.

    ``baseline`` and ``null`` time the identical code path
    (``obs=None`` resolves to the null object), while ``observed`` pays
    the real metric/trace/store-wrap cost of a fully enabled
    :class:`repro.obs.Observability`, fresh for every attempt.
    """
    return compare(OBS_MODES, attempts, lambda mode, _index: run_round(
        "in-process", device_count, obs=_obs_for_mode(mode)))


def run(device_count: int = 1000) -> List[Row]:
    """One throughput row per transport for the given fleet size."""
    return [dict(run_round(transport, device_count), variant=transport,
                 attempt=0)
            for transport in DEFAULT_TRANSPORTS]


def format_table(rows: Sequence[Row]) -> str:
    """Render rows as one line per variant, medians over its attempts.

    The two ``vs first`` columns are the medians of
    :func:`paired_ratios` against the first variant, for the whole
    round's devices/second and for the collect phase's.
    """
    ratios = paired_ratios(rows, "devices_per_second")
    collect_ratios = paired_ratios(rows, "collect_devices_per_second")
    header = (f"{'variant':<20} {'shards':>6} {'devices':>7} "
              f"{'healthy':>7} {'attempts':>8} {'dev/s':>8} "
              f"{'collect dev/s':>13} {'vs first':>9} "
              f"{'collect vs first':>16}")
    lines = [header, "-" * len(header)]
    for variant in dict.fromkeys(row["variant"] for row in rows):
        mine = [row for row in rows if row["variant"] == variant]
        rate = median(row["devices_per_second"] for row in mine)
        collect_rate = median(row["collect_devices_per_second"]
                              for row in mine)
        lines.append(
            f"{variant:<20} {mine[0]['shards']:>6} {mine[0]['devices']:>7} "
            f"{mine[0]['healthy']:>7} {len(mine):>8} {rate:>8.0f} "
            f"{collect_rate:>13.0f} "
            f"{median(pair[variant] for pair in ratios):>9.1%} "
            f"{median(pair[variant] for pair in collect_ratios):>16.1%}")
    return "\n".join(lines)


def main() -> None:
    """Print the transport, scaling, store and observability tables."""
    for rows in (run(), run_scaling_comparison(), run_store_comparison(),
                 run_obs_comparison()):
        print(format_table(rows))
        print()


if __name__ == "__main__":
    main()
