"""One benchmark pass in a fresh interpreter.

A pass provisions one workload's fleet (timed as set-up), runs the
warm-up round, sweeps garbage, then drives the timed rounds in a closed
loop — ``Fleet.run_until`` to the next collection time, one
``collect_all`` — checking every round's reports against the oracle.
It then closes the fleet (reaping worker processes and the socket
transport), restores a verifier from the store several times, checks
that the restored health equals the health before the close, and writes
its raw figures as JSON for ``run.py`` to aggregate.

Run by ``run.py``; by hand::

    python3 perfbench/fleetpass.py --workload inproc-long-history \\
        --seed 1 --trace 0 --out pass.json --work-dir .perfbench_work/pass

The module is spawn-safe: process workers re-import it as
``__mp_main__``, so all work happens under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402  (the benchmark's own modules, beside this)
import workloads  # noqa: E402

perf = time.perf_counter


def current_rss_mb() -> float:
    """Resident set size now (peak so far where /proc is unavailable)."""
    try:
        with open("/proc/self/statm", "rb") as stream:
            pages = int(stream.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def make_latency_sink():
    """A report sink stamping each report's time since its round began."""
    from repro.fleet import ReportSink

    class LatencySink(ReportSink):
        def __init__(self) -> None:
            self.round_start = 0.0
            self.active = False
            self.samples: List[float] = []

        def emit(self, report) -> None:
            if self.active:
                self.samples.append(perf() - self.round_start)

    return LatencySink()


class GcMeter:
    """Cyclic-GC pauses and generation-2 collections while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf()
        elif self.active:
            self.pause_s += perf() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1


def run_pass(spec: workloads.Workload, seed: int, traced: bool,
             work_dir: str, trace_path: Optional[str] = None
             ) -> Dict[str, object]:
    """Run one pass; returns its raw figures and check outcome."""
    recorder = None
    if traced:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
    # A pass killed earlier may have left its store behind.
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    sink = make_latency_sink()
    gc_meter = GcMeter()
    gc.callbacks.append(gc_meter)
    gc.collect()

    before_setup = calibration.point()
    started = perf()
    deployment = workloads.provision(spec, seed, work_dir, sinks=[sink])
    fleet = deployment.fleet
    if spec.worker_mode == "process":
        fleet.verifier.warm_up()
    setup_s = perf() - started
    setup_factor = calibration.factor(before_setup, calibration.point())

    oracle = workloads.Oracle(deployment)
    provers = [device.prover for device in fleet.devices()]
    transport = fleet.transport
    times = spec.round_times()

    for index in range(workloads.WARMUP_ROUNDS):
        fleet.run_until(times[index])
        reports = fleet.collect_all()
        oracle.check_round(index, reports, reports.stats.responses_lost)
        del reports
    gc.collect()

    round_s: List[float] = []
    run_s: List[float] = []
    latency_s: List[List[float]] = []
    # Round i runs between calibration points i and i + 1.
    points = [calibration.point()]
    measured = 0
    events = 0
    trace_records = 0
    requests = 0
    reported = 0
    lost = 0
    rss = [current_rss_mb()]
    stale_before = getattr(transport, "stale_responses_rejected", 0)
    fallbacks_before = getattr(transport, "tcp_fallbacks", 0)
    gc_meter.active = True
    if recorder is not None:
        recorder.recording = True
    for index in range(workloads.WARMUP_ROUNDS, len(times)):
        taken = sum(prover.measurements_taken for prover in provers)
        processed = fleet.engine.events_processed
        records = len(fleet.engine.trace)
        frame = recorder.enter("sim.run") if recorder is not None else None
        before = perf()
        fleet.run_until(times[index])
        after = perf()
        if frame is not None:
            recorder.exit(frame)
        run_s.append(after - before)
        measured += sum(prover.measurements_taken
                        for prover in provers) - taken
        events += fleet.engine.events_processed - processed

        frame = recorder.enter("round") if recorder is not None else None
        sink.active = True
        sink.samples = []
        sink.round_start = perf()
        reports = fleet.collect_all()
        ended = perf()
        sink.active = False
        latency_s.append(sink.samples)
        if frame is not None:
            recorder.exit(frame)
        round_s.append(ended - sink.round_start)
        trace_records += len(fleet.engine.trace) - records
        requests += reports.stats.requests_sent
        reported += len(reports)
        lost += reports.stats.responses_lost
        # Checked outside the timed window, then dropped.
        oracle.check_round(index, reports, reports.stats.responses_lost)
        del reports
        rss.append(current_rss_mb())
        points.append(calibration.point())
    stale = getattr(transport, "stale_responses_rejected", 0) - stale_before
    fallbacks = getattr(transport, "tcp_fallbacks", 0) - fallbacks_before
    gc_meter.active = False
    gc.callbacks.remove(gc_meter)
    if recorder is not None:
        recorder.recording = False
    oracle.check_detection()

    # Close (reaps workers, closes sockets), then restore from the store.
    before_close = workloads.health_bytes(fleet.health)
    workloads.close_deployment(deployment)
    restore_s: List[float] = []
    restore_failures: List[str] = []
    before_restore = calibration.point()
    if recorder is not None:
        recorder.recording = True
    for _ in range(workloads.RESTORES):
        begun = perf()
        restored = workloads.restore_once(deployment)
        restore_s.append(perf() - begun)
        if workloads.health_bytes(restored.health) != before_close:
            restore_failures.append(
                "restored FleetHealth differs from the health before close")
        del restored
    if recorder is not None:
        recorder.recording = False
    restore_factor = calibration.factor(before_restore, calibration.point())
    oracle.attempted += workloads.RESTORES
    failures = oracle.failures + restore_failures

    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result: Dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "traced": traced,
        "devices": spec.devices,
        "timed_rounds": len(round_s),
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "round_s": round_s,
        "run_s": run_s,
        "reports": reported,
        "selfmeasurements": measured,
        "sim_events": events,
        "sim_trace_records": trace_records,
        "latency_s": latency_s,
        "round_factor": [calibration.factor(points[i], points[i + 1])
                         for i in range(len(round_s))],
        "restore_s": restore_s,
        "restore_factor": restore_factor,
        "requests": requests,
        "lost": lost,
        "stale_rejected": stale,
        "tcp_fallbacks": fallbacks,
        "rss_mb": rss,
        "gc_pause_s": gc_meter.pause_s,
        "gc_gen2": gc_meter.gen2,
        # Worker children are reaped by now: RUSAGE_CHILDREN holds the
        # largest one's peak, counted once per worker process.
        "peak_rss_mb": self_peak + spec.worker_processes * child_peak,
        "health_sha256": hashlib.sha256(before_close).hexdigest(),
        "attempted": oracle.attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if recorder is not None:
        recorder.uninstall()
        self_time, calls, counters = recorder.totals()
        result["layers"] = {
            "self_s": dict(self_time),
            "calls": dict(calls),
            "counters": dict(counters),
        }
        if trace_path is not None:
            result["spans_written"] = recorder.write(trace_path)
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run_pass(workloads.WORKLOADS[args.workload], args.seed,
                      bool(args.trace), args.work_dir,
                      trace_path=args.trace_out)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
