#!/usr/bin/env python3
"""Time-sensitive device: irregular intervals + lenient scheduling.

Section 5 scenario: a safety-critical actuator cannot afford to be
blocked for seconds at an arbitrary moment, and Section 3.5's
schedule-aware malware tries to slip between measurements.  This
example shows:

* how a CSPRNG-driven irregular schedule removes the adversary's
  certainty of evading detection;
* how a lenient window (``w * T_M``) lets the device abort measurements
  that collide with critical tasks and still recover most of them.

Run with:  python examples/time_sensitive_device.py
"""

from repro.adversary.roving import ScheduleAwareMalware
from repro.core import ErasmusConfig, ScheduleKind
from repro.core.scheduler import IrregularScheduler, RegularScheduler
from repro.experiments import availability
from repro.fleet import DeviceProfile, FleetVerifier
from repro.sim import SimulationEngine

KEY = b"\x13" * 16
FIRMWARE = b"actuator-firmware-v2" + bytes(512)


def evasion_demo() -> None:
    """Schedule-aware malware vs regular and irregular schedules."""
    measurement_interval = 60.0
    malware = ScheduleAwareMalware(dwell=0.9 * measurement_interval, seed=1)

    regular = RegularScheduler(measurement_interval)
    irregular = IrregularScheduler(KEY, lower=0.5 * measurement_interval,
                                   upper=1.5 * measurement_interval)

    regular_result = malware.simulate(regular, trials=2000)
    irregular_result = malware.simulate(irregular, trials=2000)
    print("Schedule-aware malware (dwell = 0.9 * T_M):")
    print(f"  regular schedule:   evasion probability "
          f"{regular_result.evasion_probability:.2f}")
    print(f"  irregular schedule: evasion probability "
          f"{irregular_result.evasion_probability:.2f}")


def lenient_scheduling_demo() -> None:
    """Critical-task collisions under strict vs lenient scheduling."""
    rows = availability.run(measurement_interval=60.0,
                            measurement_runtime=7.0,
                            task_period=45.0, task_busy_time=10.0,
                            window_factors=(1.0, 2.0),
                            horizon=6 * 3600.0)
    print("\nCritical-task collisions over 6 hours:")
    for row in rows:
        label = "strict (w=1)" if row["window_factor"] == 1.0 \
            else f"lenient (w={row['window_factor']:.0f})"
        print(f"  {label:<16} measurements lost: {row['lost']:>3} "
              f"of {row['measurements_scheduled']} "
              f"(loss rate {row['loss_rate']:.1%})")


def full_prover_demo() -> None:
    """An end-to-end irregular-schedule prover with a critical task."""
    config = ErasmusConfig(measurement_interval=60.0,
                           collection_interval=600.0,
                           buffer_slots=32,
                           schedule=ScheduleKind.IRREGULAR,
                           mac_name="keyed-blake2s")
    profile = DeviceProfile.smartplus(firmware=FIRMWARE,
                                      application_size=2048,
                                      config=config)

    # The actuator is busy for 5 s out of every 90 s; measurements that
    # would land in a busy window are aborted.
    def critical_task_active(time: float) -> bool:
        return (time % 90.0) < 5.0

    device = profile.provision("actuator-7", key=KEY,
                               critical_task_active=critical_task_active)
    prover = device.prover
    # Section 5: the verifier needs a policy for justified absences —
    # here it tolerates a few measurements aborted by the critical task.
    verifier = FleetVerifier(config, allowed_missing=6)
    verifier.enroll_device(device)

    # Measurement activity is externally visible (Section 3.5); a
    # listener sums the time the CPU spent measuring.
    busy_seconds = []

    def on_measurement(_device_id, _time, measurement) -> None:
        if measurement is not None:
            busy_seconds.append(measurement.duration)

    prover.measurement_listeners.append(on_measurement)
    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=3600.0)

    response = prover.handle_collect(verifier.create_collect_request(k=32))
    report = verifier.verify_collection("actuator-7", response,
                                        collection_time=engine.now)
    print("\nIrregular-schedule prover after one hour:")
    print(f"  measurements taken:   {prover.measurements_taken}")
    print(f"  measurements aborted: {prover.measurements_aborted} "
          f"(critical task was running)")
    print(f"  verifier status:      {report.status.value}")
    print(f"  busy fraction:        {sum(busy_seconds) / engine.now:.2%}")


def main() -> None:
    evasion_demo()
    lenient_scheduling_demo()
    full_prover_demo()


if __name__ == "__main__":
    main()
