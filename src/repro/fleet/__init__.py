"""Fleet-scale attestation service: the canonical public API.

The paper's headline property — collections cheap enough to run
continuously — only matters at scale, so this package treats
attestation as a many-device service rather than a pairwise exchange:

* :mod:`repro.fleet.profiles` — :class:`DeviceProfile`: one-call
  provisioning of SMART+ / HYDRA devices (key, firmware, schedule,
  MAC);
* :mod:`repro.fleet.transport` — :class:`Transport`, the one seam the
  collection pipeline drives (its awaitable ``exchange_many_async``),
  and its implementations (in-process, simulated packet network, swarm
  relay tree, loopback sockets), which all speak the canonical wire
  encoding;
* :mod:`repro.fleet.service` — :class:`FleetVerifier` (an async-first
  ``collect_all`` pipeline over the stateless verification core, with
  the synchronous call kept as a thin shim; ``shards=N`` runs its
  rounds as N concurrent partitions, and
  ``FleetVerifier(worker_mode="process")`` verifies them in worker
  processes) and the :class:`Fleet` facade;
* :mod:`repro.fleet.sinks` — pluggable report sinks (in-memory, JSONL,
  :class:`FleetHealth` aggregation) and per-round :class:`RoundStats`.

Verifier state can be made durable by passing a
:class:`repro.store.StateStore` backend (``store=``) to
:meth:`Fleet.provision` / :class:`FleetVerifier`; a crashed verifier is
then resumed with :meth:`FleetVerifier.restore` — see
:mod:`repro.store`.

Quickstart::

    from repro.fleet import DeviceProfile, Fleet

    profile = DeviceProfile.smartplus(firmware=b"pump-fw-v1",
                                      measurement_interval=60.0,
                                      collection_interval=600.0)
    fleet = Fleet.provision(profile, 1000, master_secret=b"factory-secret")
    fleet.run_until(600.0)
    reports = fleet.collect_all()
    print(fleet.health.summary())

:class:`FleetVerifier` is the one stateful verifier, for one device or
thousands: ``verify_collection`` judges a single hand-wired collection
through the same per-device judge a round uses.
"""

from repro.fleet.profiles import (
    HYDRA,
    SMARTPLUS,
    DeviceProfile,
    ProvisionedDevice,
    derive_device_key,
)
from repro.fleet.service import (
    DEFAULT_BATCH_SIZE,
    MAX_INFLIGHT_SHARDS,
    TRANSPORT_FACTORIES,
    Fleet,
    FleetVerifier,
    RoundReports,
)
from repro.core.verification import DuplicateEnrollmentError
from repro.fleet.sinks import (
    FleetHealth,
    JsonlSink,
    MemorySink,
    ReportSink,
    RoundStats,
    SinkFanout,
)
from repro.fleet.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    SocketTransport,
    SwarmRelayTransport,
    Transport,
    serve_request,
)
from repro.fleet.workers import WorkerCrashed, WorkerError, WorkerPool

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DeviceProfile",
    "DuplicateEnrollmentError",
    "Fleet",
    "FleetHealth",
    "FleetVerifier",
    "HYDRA",
    "InProcessTransport",
    "JsonlSink",
    "MAX_INFLIGHT_SHARDS",
    "MemorySink",
    "ProvisionedDevice",
    "ReportSink",
    "RoundReports",
    "RoundStats",
    "SMARTPLUS",
    "SimulatedNetworkTransport",
    "SinkFanout",
    "SocketTransport",
    "SwarmRelayTransport",
    "TRANSPORT_FACTORIES",
    "Transport",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "derive_device_key",
    "serve_request",
]
