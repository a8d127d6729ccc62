"""What a spawned verification worker process imports.

:class:`repro.fleet.WorkerPool` starts each worker on
:func:`repro.worker.process.worker_main`.  Nothing in this package
imports :mod:`repro.fleet` (whose ``__init__`` loads transports,
device profiles, the simulator and observability), so a worker loads
only the verification core:

* :mod:`repro.worker.process` — the pipe frame protocol (both ends'
  framing), the binary task and result codec, and the worker loop;
* :mod:`repro.worker.health` — :class:`FleetHealth`, the exact
  aggregate a worker ships home per task (re-exported as
  :class:`repro.fleet.FleetHealth`).
"""
