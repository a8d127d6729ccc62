"""Checks of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import fleetpass  # noqa: E402
import workloads  # noqa: E402


def _small(name: str, **changes) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], devices=60,
                               **changes)


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as f:
        table = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(spec.name, spec.why) for spec in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == \
        {name: (spec["unit"], spec["better"], spec["bound"])
         for name, spec in table["end_to_end"].items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: spec["unit"] for name, spec in table["per_layer"].items()}
    for spec in table["per_layer"].values():
        assert spec["moves"] and spec["workload"] and spec["layer"]


@pytest.mark.parametrize("seed", [0, 7, 10 ** 12, 2 ** 64 + 1])
def test_master_secret_fits_the_mac_key_for_any_seed(seed):
    from repro.fleet.profiles import derive_device_key
    secret = workloads.master_secret(seed)
    assert len(secret) == 32
    assert derive_device_key(secret, "dev-0")


def test_socket_process_matches_in_process_single_verifier_twin(tmp_path):
    spec = _small("socket-process")
    twin = dataclasses.replace(spec, transport="in-process", shards=None,
                               worker_mode="loop")
    sharded = fleetpass.run_pass(spec, 7, False, str(tmp_path / "a"))
    single = fleetpass.run_pass(twin, 7, False, str(tmp_path / "b"))
    assert sharded["failed"] == 0, sharded["failures"]
    assert single["failed"] == 0, single["failures"]
    assert sharded["lost"] == 0 and sharded["tcp_fallbacks"] == 0
    assert sharded["health_sha256"] == single["health_sha256"]


def test_traced_pass_records_every_layer_it_runs(tmp_path):
    spec = _small("simnet-durable-sharded")
    trace = tmp_path / "spans.jsonl"
    result = fleetpass.run_pass(spec, 3, True, str(tmp_path / "w"),
                                trace_path=str(trace))
    assert result["failed"] == 0, result["failures"]
    rounds = result["timed_rounds"]
    calls = result["layers"]["calls"]
    counters = result["layers"]["counters"]
    assert calls["protocol.decode"] == spec.devices * rounds
    assert calls["store.append"] == spec.devices * rounds
    assert calls["round"] == rounds
    assert counters["verify.measurements"] == \
        spec.devices * rounds * spec.measurements_per_response
    assert calls["crypto.mac"] == counters["verify.measurements"]
    assert calls["store.restore"] == workloads.RESTORES
    for name in ("prover.serve", "transport.exchange", "health.merge",
                 "sink.emit", "obs.hook", "store.checkpoint"):
        assert result["layers"]["self_s"][name] > 0, name
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(spans) == result["spans_written"]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]


def test_oracle_flags_a_wrong_or_missing_report(tmp_path):
    spec = _small("inproc-long-history", persistent_fraction=0.1)
    deployment = workloads.provision(spec, 5, str(tmp_path))
    oracle = workloads.Oracle(deployment)
    fleet = deployment.fleet
    flagged = None
    try:
        for index, time in enumerate(spec.round_times()):
            fleet.run_until(time)
            reports = fleet.collect_all()
            oracle.check_round(index, reports, 0)
            flagged = next((r for r in reports
                            if r.status.value != "healthy"), None)
            if flagged is not None:
                break
    finally:
        workloads.close_deployment(deployment)
    assert oracle.failures == []
    assert flagged is not None
    from repro.core.verification import DeviceStatus
    missing = next(r.device_id for r in reports if r is not flagged)
    flagged.status = DeviceStatus.HEALTHY
    oracle.check_round(index, [r for r in reports if r.device_id != missing],
                       0)
    assert any(f"{flagged.device_id} is healthy, expected infected" in line
               for line in oracle.failures)
    assert any(f"no report for {missing}" in line
               for line in oracle.failures)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_fails_without_the_program(tmp_path, trace):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "socket-process",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
