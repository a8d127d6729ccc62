"""The committed benchmark trajectory (``BENCH_<workload>.json``) stays usable.

Each perf change commits the perfbench result records of its runs at the
repository root, so the trend survives CI artifact expiry.  A record is
only worth keeping if it names a workload the benchmark still defines,
passed its output check, says which machine and sources produced it,
and reports every end-to-end metric ``BENCHMARK.json`` lists.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_is_a_correct_run_of_a_known_workload(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workload = record["workload"]
    assert workload in WORKLOADS
    assert path.name == f"BENCH_{workload}.json"
    assert record["runs"], "a record holds at least one run"
    for run in record["runs"]:
        assert run["workload"] == workload
        assert run["trace"] == 0
        assert run["correct"] is True
        assert run["failed"] == 0
        assert run["attempted"] > 0
        assert run["samples"]["lost_share"] == 0
        fingerprint = run["fingerprint"]
        assert fingerprint["git_commit"]
        assert fingerprint["src_sha256"]
        for name in END_TO_END:
            assert isinstance(run["metrics"][name]["value"], (int, float)), \
                name
