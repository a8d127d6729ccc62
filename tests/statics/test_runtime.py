"""The runtime lock-order witness: the dynamic half of the rule set."""

import threading
import time

import pytest

from repro.statics.runtime import active_witness, named_lock, witness


def test_named_lock_is_plain_when_no_witness_is_active():
    assert active_witness() is None
    lock = named_lock("test.plain")
    rlock = named_lock("test.plain", kind="rlock")
    assert type(lock) in (type(threading.Lock()),)
    with lock:
        pass
    with rlock:
        with rlock:  # reentrant
            pass


def test_witness_observes_consistent_order_without_violations():
    with witness() as active:
        a = named_lock("test.a")
        b = named_lock("test.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert active.violations == []


def test_witness_detects_lock_order_inversion_across_threads():
    with witness() as active:
        a = named_lock("test.a")
        b = named_lock("test.b")
        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        thread = threading.Thread(target=inverted)
        thread.start()
        thread.join()
        kinds = [violation.kind for violation in active.violations]
        assert kinds == ["order-inversion"]
        assert "test.a" in active.violations[0].detail


def test_witness_detects_same_rank_nesting():
    with witness() as active:
        first = named_lock("fleet.worker_handle")
        second = named_lock("fleet.worker_handle")
        with first:
            with second:
                pass
        kinds = [violation.kind for violation in active.violations]
        assert kinds == ["order-inversion"]
        assert "same-rank" in active.violations[0].detail


def test_reentrant_rlock_acquisition_is_not_a_violation():
    with witness() as active:
        shared = named_lock("fleet.store", kind="rlock")
        with shared:
            with shared:
                pass
        assert active.violations == []


def test_witness_flags_sleep_while_holding_a_lock():
    with witness() as active:
        lock = named_lock("test.convoy")
        with lock:
            # The violation is the test's subject:
            # statics: ok(lock-discipline)
            time.sleep(0.001)
        assert [v.kind for v in active.violations] == ["blocking-call"]
        assert "test.convoy" in active.violations[0].held


def test_sleep_without_a_held_lock_is_fine():
    with witness() as active:
        lock = named_lock("test.idle")
        with lock:
            pass
        time.sleep(0.001)
        assert active.violations == []


def test_sleep_patch_is_removed_on_exit():
    original = time.sleep
    with witness():
        assert time.sleep is not original
    assert time.sleep is original


def test_witnesses_do_not_nest():
    with witness():
        with pytest.raises(RuntimeError):
            with witness():
                pass


def test_worker_pool_lock_is_witnessed_in_fleet_tests():
    """End to end: the product's named locks register with the witness."""
    from repro.fleet.workers import WorkerPool
    from tests.fleet.helpers import small_profile

    with witness() as active:
        pool = WorkerPool(1, config=small_profile(b"fw").config)
        pool.close()
        assert "fleet.worker_pool" in active._locks_created
        assert active.violations == []
