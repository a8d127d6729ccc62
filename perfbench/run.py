"""Fleet-round benchmark: one command, one workload, one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inproc-long-history --seed 1 \\
        --seconds 30 --trace 0

Each run drives repeated *passes*, each in a fresh interpreter
(``fleetpass.py``): provision a seeded fleet, one warm-up round, then a
fixed number of timed collection rounds in a closed loop, an output
check on every report, and a restore from the store.  Passes repeat
until ``--seconds`` have elapsed (at least :data:`MIN_PASSES`).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
traced and untraced passes and prints every per-layer metric, including
the tracing overhead.  Timings are in reference seconds, calibrated
against a fixed kernel timed around every interval
(``calibration.py``); the info line also gives raw wall-clock figures.  Metric definitions and the layer-to-metric
interaction map live in ``metrics.json``.  The last line of standard
output is the JSON result; the lines before it give the machine
fingerprint and sample counts.  Spans of traced passes and the full
result are written under ``.perfbench_work/`` in the repository root.

The run exits non-zero, without a result line, when the program's
sources are missing, and prints ``"correct": false`` and exits 1 when
any report disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, beside this)

#: Fewest passes per run (set-up time is the median over passes).
MIN_PASSES = 2

#: A run never starts a pass that could end after this many seconds.
RUN_LIMIT_S = 165.0

perf = time.perf_counter


def load_metrics() -> Dict[str, Dict[str, dict]]:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Environment checks and fingerprint
# ----------------------------------------------------------------------

def check_sources() -> Optional[str]:
    """Why the program under test cannot be imported, or ``None``."""
    package = os.path.join(SRC, "repro", "fleet", "__init__.py")
    if not os.path.isfile(package):
        return f"program sources not found ({package} is missing)"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro.fleet
    except ImportError as exc:
        return f"cannot import repro.fleet from {SRC}: {exc}"
    location = os.path.realpath(os.path.dirname(repro.fleet.__file__))
    if not location.startswith(os.path.realpath(SRC) + os.sep):
        return f"repro imported from {location}, not from {SRC}"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout's git metadata, when there is any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as stream:
            head = stream.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as stream:
                return stream.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_sha256(top: str) -> str:
    """Digest of every Python source under ``top`` (path and bytes)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, top).encode("utf-8"))
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def fingerprint() -> Dict[str, object]:
    """What a result may only be compared across: same machine, same code."""
    from repro.crypto.backend import default_backend_name
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "crypto_backend": default_backend_name(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "benchmark_sha256": _tree_sha256(HERE),
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_pass(workload: str, seed: int, traced: bool, index: int,
             timeout: float) -> dict:
    """One pass in a fresh interpreter; returns its raw figures."""
    tag = f"{workload}-seed{seed}-pass{index}"
    out = os.path.join(WORK, f"{tag}.json")
    command = [sys.executable, os.path.join(HERE, "fleetpass.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0", "--out", out,
               "--work-dir", os.path.join(WORK, tag)]
    if traced:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        # Named without the seed: each run replaces the previous run's
        # spans instead of piling them up.
        command += ["--trace-out", os.path.join(
            WORK, "traces", f"{workload}-pass{index}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Same string hashing in every pass: set and dict layouts, and with
    # them allocation and GC patterns, repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    # Own session, so a timeout can stop the pass and its workers.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=timeout)
    except BaseException:
        _kill_group(process)
        raise
    _kill_group(process)  # stray workers of a failed pass, if any
    if code != 0:
        raise RuntimeError(f"pass {tag} exited with code {code}")
    with open(out, encoding="utf-8") as stream:
        result = json.load(stream)
    os.remove(out)
    return result


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> List[dict]:
    """Passes for about ``seconds``; traced runs alternate kinds.

    Another pass starts only while it would end less than half a pass
    past ``seconds``, so a slow machine runs fewer passes rather than
    a longer run.
    """
    os.makedirs(WORK, exist_ok=True)
    started = perf()
    passes: List[dict] = []
    longest = 0.0
    while True:
        elapsed = perf() - started
        if len(passes) >= MIN_PASSES and \
                elapsed + elapsed / len(passes) / 2 > seconds:
            break
        if passes and elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
        begun = perf()
        passes.append(run_pass(
            workload, seed, traced=trace and len(passes) % 2 == 0,
            index=len(passes), timeout=RUN_LIMIT_S - elapsed))
        longest = max(longest, perf() - begun)
    return passes


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def pooled(passes: List[dict], key: str,
           calibrated: bool = True) -> List[float]:
    """Every round's ``key`` timing across passes (reference seconds)."""
    return [value * (factor if calibrated else 1.0) for p in passes
            for value, factor in zip(p[key], p["round_factor"])]


def latencies(p: dict, calibrated: bool = True) -> List[float]:
    """One pass's report latencies (reference seconds)."""
    return [value * (factor if calibrated else 1.0)
            for samples, factor in zip(p["latency_s"], p["round_factor"])
            for value in samples]


def end_to_end(passes: List[dict], calibrated: bool = True
               ) -> Dict[str, float]:
    """The run's figures: medians over samples pooled from every pass.

    Timings are in reference seconds (see ``calibration.py``) unless
    ``calibrated`` is false.  The tail latency is the median of the
    rounds' tails: each round's reports arrive in one burst, so a tail
    taken over a whole pass, or over the run, is its slowest round's
    and moves with that one round.
    """
    rounds = pooled(passes, "round_s", calibrated)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * (p["setup_factor"] if calibrated else 1.0)
            for p in passes),
        "collect_devices_per_s": sum(p["reports"] for p in passes)
        / sum(rounds),
        "round_p50_s": statistics.median(rounds),
        "report_latency_p50_s": percentile(
            [value for p in passes for value in latencies(p, calibrated)],
            0.50),
        "report_latency_p99_s": statistics.median(
            percentile(burst, 0.99) * (factor if calibrated else 1.0)
            for p in passes
            for burst, factor in zip(p["latency_s"], p["round_factor"])),
        "selfmeasure_per_s": sum(p["selfmeasurements"] for p in passes)
        / sum(pooled(passes, "run_s", calibrated)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "restore_s": statistics.median(
            value * (p["restore_factor"] if calibrated else 1.0)
            for p in passes for value in p["restore_s"]),
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    rounds = sum(p["timed_rounds"] for p in traced)
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    raw_round_self = 0.0
    for p in traced:
        factor = statistics.median(p["round_factor"])
        raw_round_self += p["layers"]["self_s"].get("round", 0.0)
        for name, value in p["layers"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value * factor
        for name, value in p["layers"]["calls"].items():
            calls[name] = calls.get(name, 0.0) + value
        for name, value in p["layers"]["counters"].items():
            if name.endswith("_s"):
                value *= factor
            counters[name] = counters.get(name, 0.0) + value

    def per_round(table: Dict[str, float], name: str) -> float:
        return table.get(name, 0.0) / rounds

    # Process-level figures come from untraced passes: stored spans
    # would add their own allocations to the heap being measured.
    plain = untraced or traced
    plain_rounds = sum(p["timed_rounds"] for p in plain)
    traced_rounds = pooled(traced, "round_s")
    restores = calls.get("store.restore", 0.0)
    return {
        "protocol.decode_s": per_round(self_s, "protocol.decode"),
        "protocol.decode_calls": per_round(calls, "protocol.decode"),
        "protocol.response_bytes":
            per_round(counters, "protocol.response_bytes"),
        "prover.serve_s": per_round(self_s, "prover.serve"),
        "verify.judge_s": per_round(self_s, "verify.judge"),
        "verify.schedule_s": per_round(self_s, "verify.schedule"),
        "verify.measurements": per_round(counters, "verify.measurements"),
        "verify.mac_inputs_rebuilt": per_round(calls, "verify.mac_input"),
        "verify.mac_input_s": per_round(self_s, "verify.mac_input"),
        "crypto.mac_calls": per_round(calls, "crypto.mac"),
        "crypto.mac_s": per_round(self_s, "crypto.mac"),
        "health.record_s": per_round(self_s, "health.record"),
        "health.merge_s": per_round(self_s, "health.merge"),
        "transport.exchange_s": per_round(self_s, "transport.exchange"),
        "transport.requests": per_round(counters, "transport.requests"),
        "transport.stale_rejected":
            sum(p["stale_rejected"] for p in traced) / rounds,
        "socket.tcp_fallbacks":
            sum(p["tcp_fallbacks"] for p in traced) / rounds,
        "store.append_s": per_round(self_s, "store.append"),
        "store.append_calls": per_round(calls, "store.append"),
        "store.enroll_s": per_round(self_s, "store.enroll"),
        "store.checkpoint_s": per_round(self_s, "store.checkpoint"),
        "store.restore_s": self_s.get("store.restore", 0.0) / restores
        if restores else 0.0,
        "sink.emit_s": per_round(self_s, "sink.emit"),
        "sink.flush_s": per_round(self_s, "sink.flush"),
        "obs.hook_s": per_round(self_s, "obs.hook"),
        "workers.task_s": per_round(counters, "workers.task_s"),
        "workers.task_bytes": per_round(counters, "workers.task_bytes"),
        "workers.codec_s": per_round(self_s, "workers.codec"),
        "workers.apply_s": per_round(self_s, "workers.apply"),
        "sim.run_s": per_round(self_s, "sim.run"),
        "sim.events": sum(p["sim_events"] for p in traced) / rounds,
        "sim.trace_records":
            sum(p["sim_trace_records"] for p in traced) / rounds,
        "gc.pause_s": sum(p["gc_pause_s"] * statistics.median(
            p["round_factor"]) for p in plain) / plain_rounds,
        "gc.gen2_collections":
            sum(p["gc_gen2"] for p in plain) / plain_rounds,
        "mem.rss_growth_mb_per_round": statistics.median(
            (p["rss_mb"][-1] - p["rss_mb"][0]) / p["timed_rounds"]
            for p in plain),
        "round.uncovered_share": raw_round_self
        / sum(pooled(traced, "round_s", calibrated=False)),
        "trace.overhead_share": statistics.median(traced_rounds)
        / statistics.median(pooled(plain, "round_s")) - 1.0,
    }


def samples(passes: List[dict]) -> Dict[str, object]:
    requests = sum(p["requests"] for p in passes)
    return {
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "timed_rounds": sum(p["timed_rounds"] for p in passes),
        "latency_samples": sum(len(burst) for p in passes
                               for burst in p["latency_s"]),
        "setup_samples": len(passes),
        "restore_samples": sum(len(p["restore_s"]) for p in passes),
        "requests": requests,
        "lost_share": sum(p["lost"] for p in passes) / requests
        if requests else 0.0,
        "tcp_fallbacks": sum(p["tcp_fallbacks"] for p in passes),
        "health_sha256": sorted({p["health_sha256"] for p in passes}),
        "wall_clock": end_to_end(passes, calibrated=False),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet-round benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_sources()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    definitions = load_metrics()
    machine = fingerprint()
    print(json.dumps({"fingerprint": machine}, sort_keys=True))
    sys.stdout.flush()

    passes = run_passes(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    if args.trace:
        values = per_layer([p for p in passes if p["traced"]],
                           [p for p in passes if not p["traced"]])
        table = definitions["per_layer"]
    else:
        values = end_to_end(passes)
        table = definitions["end_to_end"]
    metrics = {name: {"value": values[name], "unit": spec["unit"]}
               for name, spec in table.items()}
    failures = [message for p in passes for message in p["failures"]]
    result = {
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    info = samples(passes)
    print(json.dumps({"samples": info, "failures": failures[:10]},
                     sort_keys=True))
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, fingerprint=machine, samples=info)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(
            results_dir,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
