"""Tests for the generic parameter-sweep helper."""

from repro.analysis import ParameterSweep


def test_combinations_are_cartesian_product():
    sweep = ParameterSweep({"a": [1, 2], "b": ["x", "y", "z"]})
    combinations = sweep.combinations()
    assert len(combinations) == 6
    assert {"a": 2, "b": "z"} in combinations


def test_run_collects_results_in_order():
    sweep = ParameterSweep({"x": [1, 2, 3]})
    results = sweep.run(lambda x: x * 10)
    assert [result.outcome for result in results] == [10, 20, 30]
    assert sweep.column("x") == [1, 2, 3]
    assert sweep.outcomes() == [10, 20, 30]


def test_empty_parameter_space():
    sweep = ParameterSweep({})
    results = sweep.run(lambda: 42)
    assert len(results) == 1
    assert results[0].outcome == 42


def test_parallel_run_matches_serial_run():
    parameters = {"a": [1, 2, 3, 4], "b": [10, 100]}
    serial = ParameterSweep(parameters)
    serial.run(lambda a, b: a * b)
    parallel = ParameterSweep(parameters)
    parallel.run(lambda a, b: a * b, max_workers=4)
    assert [result.parameters for result in parallel.results] == \
        [result.parameters for result in serial.results]
    assert parallel.outcomes() == serial.outcomes()


def test_parallel_run_actually_overlaps_workers():
    import threading
    import time

    seen_threads = set()

    def record(x):
        seen_threads.add(threading.get_ident())
        time.sleep(0.01)
        return x

    sweep = ParameterSweep({"x": list(range(8))})
    sweep.run(record, max_workers=4)
    assert sweep.outcomes() == list(range(8))
    assert len(seen_threads) > 1


def test_max_workers_one_stays_serial():
    sweep = ParameterSweep({"x": [1, 2]})
    sweep.run(lambda x: x + 1, max_workers=1)
    assert sweep.outcomes() == [2, 3]
