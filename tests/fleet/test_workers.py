"""Tests for the process worker pool: codec, byte-identity, crash recovery."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceStatus, Measurement
from repro.core.config import ErasmusConfig
from repro.core.verification import (
    DeviceJudges,
    Enrollment,
    VerificationCore,
    VerificationReport,
)
from repro.fleet import Fleet, WorkerCrashed, WorkerError, WorkerPool
from repro.fleet import service
from repro.worker.process import (
    _DIGEST_LENGTH,
    _FRAME,
    _RESULT_HEADER,
    _TASK_HEADER,
    OP_TASK,
    decode_reply,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
)
from tests.fleet.helpers import health_bytes, report_key
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"workers-test-firmware"
MALWARE = b"workers-test-implant!"


def small_profile():
    return _small_profile(FIRMWARE)


# ----------------------------------------------------------------------
# Binary task codec
# ----------------------------------------------------------------------

def test_task_codec_round_trip():
    entries = [
        # A 300-byte key and an empty whitelist.
        (Enrollment.create("dev-0000", bytes(range(256)) + b"k" * 44, [],
                           42.5), b"\x02some-payload"),
        (Enrollment.create("dev-0001", b"k1", [b"\x01" * 20], None), None),
        # Three digests of mixed lengths, last_seen 0.0 (not absent).
        (Enrollment.create("dev-0002", b"k2",
                           [b"\x02" * 32, b"\x03", b"\x04" * 64], 0.0), b""),
        (Enrollment.create("dev-é✓", b"k3", [b"d" * 32], None),
         b"\x00\xff" * 100),
    ]
    frame = encode_task(1, 123.25, entries, want_timings=True)
    collection_time, flags, decoded = decode_task(frame[_FRAME.size:])
    assert collection_time == 123.25
    assert flags & 0x01
    assert [(enrollment, None if payload is None else bytes(payload))
            for enrollment, payload in decoded] == entries
    assert decoded[2][0].last_seen == 0.0
    assert decoded[1][0].last_seen is None
    assert len(decoded[0][0].key) == 300
    assert [len(e.healthy_digests) for e, _ in decoded] == [0, 1, 3, 1]
    for enrollment, payload in decoded:
        # Cached judges outlive the frame: key material is copied out.
        assert type(enrollment.key) is bytes
        assert all(type(digest) is bytes
                   for digest in enrollment.healthy_digests)
        if payload is not None:
            assert isinstance(payload, memoryview)
            assert payload.readonly


def test_task_codec_payloads_are_views():
    enrollment = Enrollment.create("d", b"key", [b"digest"])
    frame = encode_task(1, 0.0, [(enrollment, b"payload-bytes")])
    _, _, entries = decode_task(frame[_FRAME.size:])
    payload = entries[0][1]
    assert isinstance(payload, memoryview)
    assert payload.readonly
    assert bytes(payload) == b"payload-bytes"


def test_task_frame_packs_digests_in_sorted_order():
    """A frame's bytes do not depend on the whitelist set's iteration
    order, which the hash seed decides."""
    digests = [bytes([index]) * (1 + index % 3) for index in range(12)]
    forward = Enrollment.create("d", b"key", digests)
    backward = Enrollment.create("d", b"key", reversed(digests))
    frame = encode_task(5, 1.0, [(forward, None)])
    assert frame == encode_task(5, 1.0, [(backward, None)])
    packed = b"".join(_DIGEST_LENGTH.pack(len(digest)) + digest
                      for digest in sorted(digests))
    assert frame.endswith(packed)
    assert frame.startswith(_FRAME.pack(OP_TASK, 5) +
                            _TASK_HEADER.pack(1.0, 0, 1))


def test_decode_task_rejects_every_truncation_and_trailing_bytes():
    """A frame cut anywhere, even inside a payload, never decodes to a
    shorter view, and a frame with bytes left over is refused."""
    # A payload, an absent payload, an empty payload.
    entries = [
        (Enrollment.create("dev-0000", b"key-0", [b"\x01" * 32], 42.5),
         b"\x02payload-bytes"),
        (Enrollment.create("dev-é✓", b"key-1", [b"\x02", b"\x03" * 20],
                           None), None),
        (Enrollment.create("dev-0002", b"key-2", [], 0.0), b""),
    ]
    body = encode_task(1, 30.0, entries)[_FRAME.size:]
    assert len(decode_task(body)[2]) == 3
    for cut in range(len(body)):
        with pytest.raises(WorkerError):
            decode_task(body[:cut])
    for extra in (b"\x00", b"trailing"):
        with pytest.raises(WorkerError, match="trailing"):
            decode_task(body + extra)


def _random_report(rng, device_id, status):
    """A report with seeded fields; every float a float, as in a row."""
    anomalies = rng.choice([
        [], [""], ["clé périmée ✓", ""],
        [f"gap of {rng.randint(1, 9)} interval(s)"] * rng.randint(1, 3)])
    infected = [rng.uniform(0.0, 1e6)
                for _ in range(rng.choice([0, 1, 2, 40]))]
    return VerificationReport(
        device_id, rng.uniform(0.0, 1e6), status,
        anomalies=anomalies,
        freshness=rng.choice([None, 0.0, rng.uniform(0.0, 600.0)]),
        missing_intervals=rng.randint(0, 50),
        measurement_count=rng.randint(0, 2 ** 20),
        infected_timestamps=infected,
        newest_timestamp=rng.choice([None, -0.0, rng.uniform(0.0, 1e6)]))


def _row_bytes(report):
    return json.dumps(report.to_row(), sort_keys=True)


def _result_body(reports, health=None, timings=None):
    frame = encode_result(9, reports, {"rounds": 1} if health is None
                          else health, timings)
    rid, body, error = decode_reply(frame)
    assert (rid, error) == (9, None)
    return bytes(body)


@pytest.mark.parametrize("seed", range(4))
def test_result_codec_rebuilds_every_report_row_exactly(seed):
    rng = random.Random(seed)
    reports = [_random_report(rng, f"dev-{index:04d}", status)
               for index, status in enumerate(list(DeviceStatus) * 8)]
    # Both optional floats absent, and both present, at least once.
    reports[0].freshness = reports[0].newest_timestamp = None
    reports[1].freshness, reports[1].newest_timestamp = 12.5, 7.25
    # Gap counts at the top of the header's 64-bit field and past it:
    # the schedule check makes one that large from a forged record dated
    # late on the wire's microsecond clock and a sub-microsecond interval.
    reports[2].missing_intervals = 2 ** 64 - 1
    reports[3].missing_intervals = 2 ** 64
    core = VerificationCore(ErasmusConfig(measurement_interval=1e-7,
                                          collection_interval=1e-6))
    reports[4].missing_intervals, _ = core.check_schedule(
        [0.0, math.nextafter((2 ** 64 - 1) / 1e6, 0.0)], None)
    assert reports[4].missing_intervals > 2 ** 64
    ids = [report.device_id for report in reports]
    decoded, _, _ = decode_result(_result_body(reports), ids)
    assert [_row_bytes(report) for report in decoded] == \
        [_row_bytes(report) for report in reports]
    assert decoded == reports


def test_result_codec_round_trip():
    rng = random.Random(7)
    reports = [_random_report(rng, "dev-0000", DeviceStatus.HEALTHY),
               _random_report(rng, "dev-0001", DeviceStatus.NO_DATA)]
    rows = [report.to_row() for report in reports]
    health = {"devices_seen": ["dev-0000"], "rounds": 1}
    decoded, decoded_health, timings = decode_result(
        _result_body(reports, health, [0.5, 0.25]), ["dev-0000", "dev-0001"])
    assert [report.to_row() for report in decoded] == rows
    assert decoded_health == health
    assert timings == [0.5, 0.25]
    decoded, decoded_health, timings = decode_result(
        _result_body([], health), [])
    assert decoded == []
    assert decoded_health == health
    assert timings is None


def test_decode_result_rejects_malformed_bodies():
    rng = random.Random(3)
    reports = [_random_report(rng, f"dev-{index}", status)
               for index, status in enumerate(DeviceStatus)]
    reports[0].anomalies = ["a text cut short must not decode"]
    reports[1].missing_intervals = 2 ** 70
    ids = [report.device_id for report in reports]
    body = _result_body(reports, timings=[0.125] * len(reports))
    assert len(decode_result(body, ids)[0]) == len(ids)
    for cut in range(len(body)):
        with pytest.raises(WorkerError):
            decode_result(body[:cut], ids)
    with pytest.raises(WorkerError, match="trailing"):
        decode_result(body + b"\x00", ids)
    with pytest.raises(WorkerError, match="for 3 devices"):
        decode_result(body, ids[:3])
    with pytest.raises(WorkerError, match="for 5 devices"):
        decode_result(body, ids + ["dev-extra"])
    status_at = _RESULT_HEADER.size + 8
    for offset, value, message in ((status_at, 4, "status code"),
                                   (status_at + 1, 0x08, "report flags"),
                                   (0, 0x02, "unknown flags")):
        broken = bytearray(body)
        broken[offset] = value
        with pytest.raises(WorkerError, match=message):
            decode_result(bytes(broken), ids)


def test_worker_judged_reports_round_trip_their_rows():
    """Reports the judge made, lazily built verdicts included, decode to
    the rows the worker would have written."""
    fleet = Fleet.provision(small_profile(), 4, master_secret=b"master")
    try:
        fleet.run_until(60.0)
        reports = list(fleet.collect_all())
        fleet.device("dev-0002").load_application(MALWARE)
        fleet.run_until(120.0)
        reports.extend(fleet.collect_all())
        assert {report.status for report in reports} >= \
            {DeviceStatus.HEALTHY, DeviceStatus.INFECTED}
        judges = DeviceJudges(VerificationCore(small_profile().config))
        reports.append(judges.verify_payload(
            fleet.verifier._enrollments["dev-0001"], b"\xffjunk", 130.0))
        reports.append(judges.verify_payload(
            fleet.verifier._enrollments["dev-0003"], None, 130.0))
        ids = [report.device_id for report in reports]
        decoded, _, _ = decode_result(_result_body(reports), ids)
        assert [_row_bytes(report) for report in decoded] == \
            [_row_bytes(report) for report in reports]
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Process mode == loop mode
# ----------------------------------------------------------------------

def run_rounds(fleet, infected=(), rounds=1):
    """Drive deterministic rounds with a mid-window infect/clean cycle."""
    horizon = 0.0
    all_reports = []
    for _ in range(rounds):
        horizon += 60.0
        fleet.run_until(horizon)
        for device_id in infected:
            fleet.device(device_id).load_application(MALWARE)
        fleet.run_until(horizon + 20.0)
        horizon += 20.0
        for device_id in infected:
            fleet.device(device_id).load_application(FIRMWARE)
        all_reports.append(fleet.collect_all())
    return all_reports


def provision_twin(count, shards, infected=(), rounds=1):
    """Twin sharded fleets differing only in where verification runs."""
    outcomes = []
    for worker_mode in ("loop", "process"):
        fleet = Fleet.provision(small_profile(), count,
                                master_secret=b"master", shards=shards,
                                worker_mode=worker_mode)
        outcomes.append((fleet, run_rounds(fleet, infected, rounds)))
    return outcomes


def test_process_mode_matches_loop_mode():
    (loop, loop_rounds), (process, process_rounds) = provision_twin(
        18, shards=3, infected=("dev-0004", "dev-0011"), rounds=2)
    try:
        for loop_reports, process_reports in zip(loop_rounds,
                                                 process_rounds):
            assert [report_key(r) for r in loop_reports] == \
                [report_key(r) for r in process_reports]
            assert [_row_bytes(r) for r in loop_reports] == \
                [_row_bytes(r) for r in process_reports]
        assert health_bytes(loop.verifier) == health_bytes(process.verifier)
        # The infect/clean cycle flags its victims in both placements
        # (the 80 s cadence additionally flags round-2 gap policy hits,
        # identically on both sides — pinned by the byte-identity above).
        assert {"dev-0004", "dev-0011"} <= process.health.flagged_devices
        pool = process.verifier._pool
        assert pool is not None and pool.restarts == [0, 0, 0]
    finally:
        loop.close()
        process.close()


def test_process_mode_re_enrollment_matches_loop_mode():
    """Re-enrolling with a new key or whitelist between rounds reaches
    the workers with the next task: process mode still matches loop."""
    outcomes = []
    for worker_mode in ("loop", "process"):
        fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                                shards=2, worker_mode=worker_mode)
        verifier = fleet.verifier
        fleet.run_until(60.0)
        first = fleet.collect_all()
        rekeyed = fleet.device("dev-0001")
        verifier.enroll_device(dataclasses.replace(
            rekeyed, key=bytes(reversed(rekeyed.key))), re_enroll=True)
        verifier.enroll_device(dataclasses.replace(
            fleet.device("dev-0004"), healthy_digest=b"\x00" * 32),
            re_enroll=True)
        fleet.run_until(120.0)
        second = fleet.collect_all()
        outcomes.append((fleet, [first, second]))
    (loop, loop_rounds), (process, process_rounds) = outcomes
    try:
        for loop_reports, process_reports in zip(loop_rounds,
                                                 process_rounds):
            assert [report_key(r) for r in loop_reports] == \
                [report_key(r) for r in process_reports]
        assert health_bytes(loop.verifier) == health_bytes(process.verifier)
        second = {r.device_id: r.status for r in process_rounds[1]}
        assert second["dev-0001"] is DeviceStatus.TAMPERED
        assert second["dev-0004"] is DeviceStatus.INFECTED
        assert [status for device_id, status in second.items()
                if device_id not in ("dev-0001", "dev-0004")] == \
            [DeviceStatus.HEALTHY] * 4
    finally:
        loop.close()
        process.close()


def test_forged_far_future_record_commits_the_same_report_in_both_modes():
    """A record dated at the end of the wire's u64 microsecond clock
    makes the gap count exceed any 32-bit field: process mode still
    commits the TAMPERED report loop mode does, and the round survives."""
    latest = math.nextafter((2 ** 64 - 1) / 1e6, 0.0)
    outcomes = []
    for worker_mode in ("loop", "process"):
        fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                                shards=2, worker_mode=worker_mode)
        fleet.run_until(60.0)
        fleet.collect_all()
        fleet.run_until(120.0)
        store = fleet.device("dev-0001").prover.store
        genuine = store.raw_slot(0)
        store.overwrite_slot(0, Measurement(
            timestamp=latest, digest=genuine.digest,
            tag=bytes(len(genuine.tag))))
        outcomes.append((fleet, fleet.collect_all()))
    (loop, loop_reports), (process, process_reports) = outcomes
    try:
        assert [_row_bytes(r) for r in loop_reports] == \
            [_row_bytes(r) for r in process_reports]
        assert health_bytes(loop.verifier) == health_bytes(process.verifier)
        forged = {r.device_id: r for r in process_reports}["dev-0001"]
        assert forged.status is DeviceStatus.TAMPERED
        assert forged.missing_intervals > 2 ** 32
        assert process.verifier._pool.restarts == [0, 0]
    finally:
        loop.close()
        process.close()


def test_process_round_commits_worker_reports_without_from_row(
        monkeypatch):
    """The parent commits the reports it decodes from the result frame:
    no report row is parsed back through ``from_row`` in a round."""
    calls = []
    from_row = VerificationReport.__dict__["from_row"].__func__

    def counting(cls, row):
        calls.append(row)
        return from_row(cls, row)

    monkeypatch.setattr(VerificationReport, "from_row",
                        classmethod(counting))
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2, worker_mode="process")
    try:
        fleet.run_until(60.0)
        reports = fleet.collect_all()
        assert len(reports) == 8
        assert all(r.status is DeviceStatus.HEALTHY for r in reports)
        assert calls == []
    finally:
        fleet.close()


@settings(max_examples=4, deadline=None)
@given(count=st.integers(min_value=1, max_value=10),
       shards=st.integers(min_value=1, max_value=3),
       infect_stride=st.integers(min_value=0, max_value=3))
def test_process_merge_health_byte_identical_property(count, shards,
                                                      infect_stride):
    infected = tuple(f"dev-{index:04d}" for index in range(count)
                     if infect_stride and index % 3 == infect_stride % 3)
    (loop, _), (process, _) = provision_twin(count, shards,
                                             infected=infected)
    try:
        assert health_bytes(loop.verifier) == health_bytes(process.verifier)
    finally:
        loop.close()
        process.close()


# ----------------------------------------------------------------------
# Crash injection and recovery
# ----------------------------------------------------------------------

def test_worker_crash_loses_round_then_rejoins():
    # A whole collection round vanishes with the crashed worker, so the
    # survivors' buffers bridge a one-round gap on rejoin: tolerate it.
    fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                            shards=2, worker_mode="process",
                            allowed_missing=8)
    try:
        verifier = fleet.verifier
        shard0 = verifier.enrolled_ids()[0::2]
        others = verifier.enrolled_ids()[1::2]
        assert shard0 and others

        fleet.run_until(60.0)
        first = {r.device_id: r for r in fleet.collect_all()}
        assert all(r.status is DeviceStatus.HEALTHY for r in first.values())
        pool = verifier._pool
        assert pool is not None

        pool.inject_crash(0)
        fleet.run_until(120.0)
        second = {r.device_id: r for r in fleet.collect_all()}
        for device_id in shard0:
            report = second[device_id]
            assert report.status is DeviceStatus.NO_DATA
            assert any("worker crashed" in anomaly
                       for anomaly in report.anomalies)
        for device_id in others:
            assert second[device_id].status is DeviceStatus.HEALTHY
        assert second[shard0[0]].collection_time == \
            pytest.approx(120.0, abs=1.0)

        # The next round respawns the slot, and the shard rejoins with
        # data-bearing reports.
        fleet.run_until(180.0)
        third = {r.device_id: r for r in fleet.collect_all()}
        assert all(r.status is DeviceStatus.HEALTHY for r in third.values())
        assert all(r.measurement_count > 0 for r in third.values())
        assert pool.restarts[0] == 1
        assert pool.restarts[1] == 0
        assert verifier.health.devices_seen == set(verifier.enrolled_ids())
    finally:
        fleet.close()


def test_crash_round_health_counts_shard_devices_unseen():
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2, worker_mode="process")
    try:
        fleet.run_until(60.0)
        fleet.verifier.warm_up()
        pool = fleet.verifier._pool
        pool.inject_crash(1)
        reports = fleet.collect_all()
        shard1 = set(fleet.verifier.enrolled_ids()[1::2])
        assert {r.device_id for r in reports
                if r.status is DeviceStatus.NO_DATA} == shard1
        stats = reports.stats
        assert stats.responses_lost == len(shard1)
    finally:
        fleet.close()


def test_slot_dead_before_its_first_task_loses_only_its_partition(
        monkeypatch):
    """A slot that dies between spawn and its first task makes
    ``submit_task`` raise synchronously; the round still commits, its
    partition NO_DATA and counted lost, and the slot rejoins the next
    round."""
    spawn = WorkerPool.ensure_worker
    doomed = {0}

    def spawn_then_kill(pool, index):
        spawn(pool, index)
        if index in doomed:
            doomed.discard(index)
            pool.kill(index)
            assert pool._handles[index].dead.wait(timeout=10)

    monkeypatch.setattr(WorkerPool, "ensure_worker", spawn_then_kill)
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2, worker_mode="process",
                            allowed_missing=8)
    try:
        verifier = fleet.verifier
        shard0 = set(verifier.enrolled_ids()[0::2])
        fleet.run_until(60.0)
        reports = fleet.collect_all()
        assert {r.device_id for r in reports
                if r.status is DeviceStatus.NO_DATA} == shard0
        assert reports.stats.responses_lost == len(shard0)

        fleet.run_until(120.0)
        again = fleet.collect_all()
        assert all(r.status is DeviceStatus.HEALTHY for r in again)
        assert verifier._pool.restarts == [1, 0]
    finally:
        fleet.close()


def test_failing_worker_task_loses_only_its_shard(monkeypatch):
    """A result frame ``decode_result`` rejects costs its own shard, not
    the round: that shard's devices commit NO_DATA, naming the failure,
    and count as lost; the other partition commits exactly what loop
    mode commits."""
    decode = service.decode_result
    failed = []

    def fail_once(body, device_ids):
        if not failed:
            failed.extend(device_ids)
            raise WorkerError(f"result frame holds 0 reports for "
                              f"{len(device_ids)} devices")
        return decode(body, device_ids)

    monkeypatch.setattr(service, "decode_result", fail_once)
    (loop, (loop_reports,)), (process, (process_reports,)) = \
        provision_twin(8, shards=2)
    try:
        assert len(failed) == 4
        assert len(process_reports) == 8
        assert process.health.reports_total == 8
        assert process_reports.stats.responses_lost == 4
        loop_rows = {r.device_id: _row_bytes(r) for r in loop_reports}
        for report in process_reports:
            if report.device_id in failed:
                assert report.status is DeviceStatus.NO_DATA
                assert report.anomalies == [
                    "shard worker failed (result frame holds 0 reports "
                    "for 4 devices); response discarded"]
            else:
                assert _row_bytes(report) == loop_rows[report.device_id]
    finally:
        loop.close()
        process.close()


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------

def test_submit_before_spawn_raises():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        with pytest.raises(WorkerCrashed):
            pool.submit_task(0, 0.0, [])
    finally:
        pool.close()


def test_worker_reports_python_errors_as_worker_error():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.ensure_worker(0)
        rid = next(pool._rids)
        # Cut inside the first entry's header: the worker's decode raises.
        truncated = encode_task(rid, 0.0, [(
            Enrollment.create("d", b"key", []), b"payload")])[
                :_FRAME.size + _TASK_HEADER.size + 3]
        future = pool._submit(0, rid, truncated)
        with pytest.raises(WorkerError, match="worker 0 failed"):
            future.result(timeout=30)
        # The worker survives a failed frame: the next one still works.
        assert pool.submit_task(0, 0.0, []).result(timeout=30) is not None
    finally:
        pool.close()


def test_worker_answers_short_or_long_task_frames_with_an_error():
    """A frame cut inside a payload, or one with trailing bytes, comes
    back as an error reply rather than a TAMPERED verdict on a shorter
    payload."""
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.ensure_worker(0)
        for damage in (lambda frame: frame[:-1],
                       lambda frame: frame + b"\x00"):
            rid = next(pool._rids)
            frame = encode_task(rid, 0.0, [(Enrollment.create(
                "d", b"key", []), b"payload")])
            future = pool._submit(0, rid, damage(frame))
            with pytest.raises(WorkerError, match="worker 0 failed"):
                future.result(timeout=30)
        assert pool.restarts == [0]
    finally:
        pool.close()


def test_worker_rejects_unknown_opcode_and_keeps_serving():
    """The worker answers a frame it has no arm for with an error, not a
    dead pipe, and the same slot still verifies the next task."""
    from repro.core.protocol import CollectRequest
    from repro.fleet import serve_request
    from repro.sim.engine import SimulationEngine

    profile = small_profile()
    device = profile.provision("dev-0000", master_secret=b"master")
    engine = SimulationEngine()
    device.prover.attach(engine, start_time=0.0)
    engine.run(until=60.0)
    payload = serve_request(device.prover, CollectRequest(
        k=profile.config.measurements_per_collection).encode())
    enrollment = Enrollment.create(device.device_id, device.key,
                                   [device.healthy_digest])

    pool = WorkerPool(1, config=profile.config)
    try:
        pool.ensure_worker(0)
        rid = next(pool._rids)
        future = pool._submit(0, rid, _FRAME.pack(7, rid) + b"{}")
        with pytest.raises(WorkerError, match="unknown opcode 7"):
            future.result(timeout=30)
        body = pool.submit_task(0, 60.0, [(enrollment, payload)]
                                ).result(timeout=30)
        reports, _, _ = decode_result(body, [device.device_id])
        assert [report.device_id for report in reports] == \
            [device.device_id]
        assert reports[0].status is DeviceStatus.HEALTHY
        assert pool.restarts == [0]
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_final():
    pool = WorkerPool(2, config=small_profile().config)
    pool.ensure_worker(0)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError):
        pool.ensure_worker(0)


def test_worker_pool_metrics_record_restarts_and_latency():
    from repro.obs import Observability

    obs = Observability()
    fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                            shards=2, worker_mode="process", obs=obs)
    try:
        fleet.run_until(60.0)
        fleet.collect_all()
        assert obs.worker_task_seconds.labels("0").count >= 1
        assert obs.worker_task_seconds.labels("1").count >= 1
        assert obs.worker_queue_depth.value("0") == 0
        assert obs.worker_restarts_total.value("0") == 0
        pool = fleet.verifier._pool
        pool.inject_crash(0)
        fleet.run_until(120.0)
        fleet.collect_all()
        fleet.run_until(180.0)
        fleet.collect_all()
        assert obs.worker_restarts_total.value("0") == 1
    finally:
        fleet.close()


def test_kill_crashes_an_idle_worker_immediately():
    """OP_EXIT over the pipe: no task needed, futures fail, slot respawns."""
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.ensure_worker(0)
        assert pool.submit_task(0, 0.0, []).result(timeout=30) is not None
        pool.kill(0)
        assert pool._handles[0].dead.wait(timeout=10)
        with pytest.raises(WorkerCrashed):
            pool.submit_task(0, 0.0, [])
        assert pool.restarts[0] == 0
        pool.ensure_worker(0)
        assert pool.restarts[0] == 1
        assert pool.submit_task(0, 0.0, []).result(timeout=30) is not None
    finally:
        pool.close()


def test_kill_without_spawn_is_a_no_op():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.kill(0)  # never spawned: nothing to do, nothing to raise
    finally:
        pool.close()


def test_drain_rejects_frames_with_unknown_opcodes():
    """A frame neither error nor result means the codecs disagree;
    handing its body to decode_result would produce garbage."""
    import multiprocessing
    import threading
    from concurrent.futures import Future

    from repro.fleet.workers import _WorkerHandle

    parent_end, worker_end = multiprocessing.Pipe(duplex=True)
    pool = WorkerPool(1, config=small_profile().config)
    handle = _WorkerHandle(process=None, conn=parent_end)
    future = Future()
    handle.pending[7] = future
    reader = threading.Thread(target=pool._drain, args=(0, handle),
                              daemon=True)
    reader.start()
    try:
        worker_end.send_bytes(_FRAME.pack(99, 7) + b"mystery")
        with pytest.raises(WorkerError, match="unexpected opcode 99"):
            future.result(timeout=10)
    finally:
        worker_end.close()
        reader.join(timeout=10)
        pool.close()


def test_send_failure_after_reader_orphaned_the_future_is_worker_crashed():
    """The worker dies while a task is being sent: the reader's EOF path
    fails the pending future first, then ``send_bytes`` raises.  The
    caller must see one ``WorkerCrashed``, not ``InvalidStateError``
    from failing the future twice."""
    from repro.fleet.workers import _WorkerHandle

    pool = WorkerPool(1, config=small_profile().config)

    class _DyingConn:
        def recv_bytes(self):
            raise EOFError

        def send_bytes(self, _frame):
            pool._drain(0, handle)  # the reader sees EOF and orphans
            raise OSError("broken pipe")

    handle = _WorkerHandle(process=None, conn=_DyingConn())
    pool._handles[0] = handle
    try:
        future = pool.submit_task(0, 0.0, [])
        with pytest.raises(WorkerCrashed, match="died with tasks"):
            future.result(timeout=10)
        assert handle.dead.is_set() and handle.pending == {}
    finally:
        pool._handles[0] = None
        pool.close()


#: Runs in a spawned child: the worker loop itself, then a report of
#: every module the child loaded by the time the loop returned.
_MODULE_PROBE = ("import sys\n"
                 "from repro.worker.process import worker_main\n"
                 "worker_main(conn, config, 0.25, 0)\n"
                 "report.send(sorted(sys.modules))\n")


def test_spawned_worker_loads_no_fleet_stack():
    """A worker imports the verification core only: no networkx, no
    network, no simulator, nothing from ``repro.fleet``."""
    import multiprocessing

    from repro.core.protocol import CollectRequest
    from repro.fleet import serve_request, workers
    from repro.sim.engine import SimulationEngine
    from repro.worker import process as worker_process

    profile = small_profile()
    device = profile.provision("dev-0000", master_secret=b"master")
    engine = SimulationEngine()
    device.prover.attach(engine, start_time=0.0)
    engine.run(until=60.0)
    payload = serve_request(device.prover, CollectRequest(
        k=profile.config.measurements_per_collection).encode())
    enrollment = Enrollment.create(device.device_id, device.key,
                                   [device.healthy_digest])

    # The pool spawns exactly this entry point.
    assert workers.worker_main is worker_process.worker_main
    context = multiprocessing.get_context("spawn")
    conn, child_conn = context.Pipe(duplex=True)
    report, child_report = context.Pipe(duplex=False)
    process = context.Process(
        target=exec, args=(_MODULE_PROBE, {"conn": child_conn,
                                           "report": child_report,
                                           "config": profile.config}),
        daemon=True)
    process.start()
    child_conn.close()
    child_report.close()
    try:
        conn.send_bytes(worker_process.encode_task(
            2, 60.0, [(enrollment, payload)]))
        _, body, error = worker_process.decode_reply(conn.recv_bytes())
        assert error is None
        reports, _, _ = decode_result(body, [device.device_id])
        assert reports[0].status is DeviceStatus.HEALTHY
        conn.send_bytes(worker_process.shutdown_frame(3))
        assert report.poll(30)
        modules = report.recv()
    finally:
        process.join(timeout=30)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
        conn.close()
        report.close()
    assert "repro.worker.process" in modules
    assert [name for name in modules
            if name.split(".")[0] == "networkx"
            or name.startswith(("repro.net", "repro.sim", "repro.fleet"))
            ] == []
