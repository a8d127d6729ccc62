"""Benchmark: observability overhead (devices/second per obs mode).

Runs one in-process 1k-device fleet round per observability mode —
``baseline`` (plain provision), ``null`` (an explicit
:data:`repro.obs.NULL_OBSERVABILITY` threaded through the same seams),
``observed`` (a fully enabled :class:`repro.obs.Observability` with
metrics, span tracing, and store wrapping) — and records each mode's
median devices/second in ``extra_info``.  CI exports the
pytest-benchmark JSON as ``obs-overhead.json``, so instrumentation
cost is tracked against the fleet-collection yardstick as the obs
subsystem evolves.

The modes run interleaved over several attempts, each with a fresh
observability object, and every gate checks the median of the
per-attempt ratios against the same attempt's baseline, so run-to-run
jitter does not masquerade as instrumentation cost.
"""

from statistics import median

from repro.experiments import fleet_collection

FLEET_SIZE = 1000
ATTEMPTS = 12


def test_obs_mode_overhead(benchmark):
    rows = benchmark.pedantic(
        fleet_collection.run_obs_comparison,
        args=(FLEET_SIZE,),
        kwargs={"attempts": ATTEMPTS},
        rounds=1, iterations=1)
    assert {row["variant"] for row in rows} == \
        set(fleet_collection.OBS_MODES)
    for row in rows:
        assert row["reports"] == FLEET_SIZE
        assert row["healthy"] == FLEET_SIZE
    for mode in fleet_collection.OBS_MODES:
        benchmark.extra_info[f"{mode}_devices_per_second"] = median(
            row["devices_per_second"] for row in rows
            if row["variant"] == mode)
    ratios = fleet_collection.paired_ratios(rows, "devices_per_second")

    # ``obs=None`` resolves to the null object, so the baseline and
    # null rows time the identical code path: the disabled
    # instrumentation branches (one ``obs.enabled`` test per shard and
    # per report) are structurally free.  The timed ratio therefore
    # only measures run-to-run jitter; it is recorded in extra_info
    # (expected within 5%) and hard-gated at 10% so shared-CI noise
    # cannot fail the workflow while a real hot-path regression —
    # say, instrumentation leaking out of its ``obs.enabled`` guard —
    # still would.
    null = median(pair["null"] for pair in ratios)
    benchmark.extra_info["null_vs_baseline"] = null
    assert null >= 0.90, (
        f"null-obs rounds ran at a median {null:.2f}x the baseline's "
        f"devices/second — disabled instrumentation is not free")

    # Enabled observability pays real work per device (two clock reads,
    # a histogram observation, a trace row, timed store writes).  On
    # the benchmark's headline devices/second that stays within 5%
    # (expected ~0%: the round is dominated by provisioning and
    # measurement); the hard gate is 10%, mirroring the store bench.
    observed = median(pair["observed"] for pair in ratios)
    benchmark.extra_info["observed_vs_baseline"] = observed
    assert observed >= 0.90, (
        f"observed rounds ran at a median {observed:.2f}x the "
        f"baseline's devices/second")

    # The isolated collect phase concentrates the per-device cost;
    # record the ratio and keep it from ever becoming pathological.
    collect_ratio = median(
        pair["observed"]
        for pair in fleet_collection.paired_ratios(rows, "collect_s"))
    benchmark.extra_info["observed_collect_vs_baseline"] = collect_ratio
    assert collect_ratio < 1.5, (
        f"enabled-obs collect phase is pathological: a median "
        f"{collect_ratio:.2f}x the baseline collect phase")
