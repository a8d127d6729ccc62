"""Tests for the process worker pool: codec, byte-identity, crash recovery."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceStatus
from repro.core.verification import Enrollment
from repro.fleet import Fleet, WorkerCrashed, WorkerError, WorkerPool
from repro.worker.process import (
    _DIGEST_LENGTH,
    _FRAME,
    _TASK_HEADER,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    task_frame,
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
    frame = encode_task(123.25, entries, want_timings=True)
    collection_time, flags, decoded = decode_task(frame)
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
    frame = encode_task(0.0, [(enrollment, b"payload-bytes")])
    _, _, entries = decode_task(frame)
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
    frame = encode_task(1.0, [(forward, None)])
    assert frame == encode_task(1.0, [(backward, None)])
    packed = b"".join(_DIGEST_LENGTH.pack(len(digest)) + digest
                      for digest in sorted(digests))
    assert frame.endswith(packed)
    assert frame.startswith(_TASK_HEADER.pack(1.0, 0, 1))


def test_result_codec_round_trip():
    rows = [{"device_id": "dev-0000", "status": "ok", "anomalies": []},
            {"device_id": "dev-0001", "status": "no_data"}]
    health = {"devices_seen": ["dev-0000"], "rounds": 1}
    decoded_rows, decoded_health, timings = decode_result(
        encode_result(rows, health, [0.5, 0.25]))
    assert decoded_rows == rows
    assert decoded_health == health
    assert timings == [0.5, 0.25]
    decoded_rows, decoded_health, timings = decode_result(
        encode_result([], health))
    assert decoded_rows == []
    assert decoded_health == health
    assert timings is None


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
        truncated = encode_task(0.0, [(Enrollment.create("d", b"key", []),
                                       b"payload")])[:_TASK_HEADER.size + 3]
        future = pool._submit(0, rid, task_frame(rid, truncated))
        with pytest.raises(WorkerError, match="worker 0 failed"):
            future.result(timeout=30)
        # The worker survives a failed frame: the next one still works.
        assert pool.submit_task(0, 0.0, []).result(timeout=30) is not None
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
        rows, _, _ = decode_result(body)
        assert [row["device_id"] for row in rows] == [device.device_id]
        assert rows[0]["status"] == DeviceStatus.HEALTHY.value
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
        conn.send_bytes(worker_process.task_frame(
            2, worker_process.encode_task(60.0, [(enrollment, payload)])))
        _, body, error = worker_process.decode_reply(conn.recv_bytes())
        assert error is None
        rows, _, _ = decode_result(body)
        assert rows[0]["status"] == DeviceStatus.HEALTHY.value
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
