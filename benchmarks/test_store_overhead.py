"""Benchmark: store write-through overhead (devices/second per backend).

Runs one in-process fleet round per :mod:`repro.store` backend —
baseline (the plain provision path), :class:`MemoryStore`,
:class:`JsonlStore`, :class:`SqliteStore` — and records each backend's
median devices/second in ``extra_info``, so persistence cost is
tracked against the in-memory yardstick from
:mod:`benchmarks.test_fleet_collection` as the subsystem evolves.

The backends run interleaved over several attempts, each with a fresh
store, and every gate checks the median of the per-attempt ratios
against the same attempt's baseline, so run-to-run jitter does not
masquerade as write-through cost.
"""

from statistics import median

from repro.experiments import fleet_collection

FLEET_SIZE = 300
ATTEMPTS = 16


def test_store_backend_overhead(benchmark, tmp_path):
    rows = benchmark.pedantic(
        fleet_collection.run_store_comparison,
        args=(FLEET_SIZE,),
        kwargs={"directory": str(tmp_path), "attempts": ATTEMPTS},
        rounds=1, iterations=1)
    assert {row["variant"] for row in rows} == \
        set(fleet_collection.STORE_BACKENDS)
    for row in rows:
        assert row["reports"] == FLEET_SIZE
        assert row["healthy"] == FLEET_SIZE
    for backend in fleet_collection.STORE_BACKENDS:
        benchmark.extra_info[f"{backend}_devices_per_second"] = median(
            row["devices_per_second"] for row in rows
            if row["variant"] == backend)
    ratios = fleet_collection.paired_ratios(rows, "devices_per_second")

    # The default MemoryStore must not tax the PR 2 in-process baseline.
    # Structurally there is no overhead at all: store=None resolves to a
    # MemoryStore, so the two rows time the identical code path.
    from repro.fleet import DeviceProfile, FleetVerifier
    from repro.store import MemoryStore
    baseline_verifier = FleetVerifier(DeviceProfile.smartplus().config)
    assert isinstance(baseline_verifier.store, MemoryStore)
    # The timed comparison therefore only measures run-to-run jitter;
    # the median ratio is recorded in extra_info (expected within 5%),
    # and the hard gate is set at 10% so shared-CI noise cannot fail
    # the workflow while a real hot-path regression still would.
    memory = median(pair["memory"] for pair in ratios)
    benchmark.extra_info["memory_vs_baseline"] = memory
    assert memory >= 0.90, (
        f"MemoryStore rounds ran at a median {memory:.2f}x the "
        f"baseline's devices/second")

    # Durable backends pay real I/O but must stay the same order of
    # magnitude — a fleet round should never be dominated by the store.
    for backend in ("jsonl", "sqlite"):
        rate = median(pair[backend] for pair in ratios)
        assert rate > 0.2, (
            f"{backend} store overhead is pathological: a median "
            f"{rate:.2f}x the baseline's devices/second")
