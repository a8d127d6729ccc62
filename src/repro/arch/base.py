"""Abstract base class shared by the SMART+ and HYDRA architecture models."""

from __future__ import annotations

import abc
import struct
from typing import Callable, Dict, NamedTuple

from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare
from repro.crypto.mac import get_mac
from repro.hw.devices import DeviceCostModel
from repro.hw.memory import AccessContext, DeviceMemory

_HASH_FOR_MAC: Dict[str, str] = {
    "hmac-sha1": "sha1",
    "hmac-sha256": "sha256",
    "keyed-blake2s": "blake2s",
}


def hash_for_mac(mac_name: str) -> Callable[[bytes], bytes]:
    """Return the hash function ``H`` paired with a MAC choice.

    The measurement is ``MAC_K(t, H(mem_t))``; the paper pairs HMAC-SHA1
    with SHA-1, HMAC-SHA256 with SHA-256 and keyed BLAKE2s with
    (unkeyed) BLAKE2s.  The returned callable is the crypto provider's
    resolved hash (:meth:`~repro.crypto.backend.CryptoBackend.hash_function`),
    shared by every caller on that provider; all providers compute
    identical values.
    """
    try:
        hash_name = _HASH_FOR_MAC[mac_name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_HASH_FOR_MAC))
        raise ValueError(
            f"no hash paired with MAC {mac_name!r}; known: {known}") from exc
    return get_backend().hash_function(hash_name)


class ArchitectureError(Exception):
    """Generic architecture-level failure (misconfiguration, bad state)."""


class MeasurementAborted(Exception):
    """A measurement was aborted before completion (Section 5 variant)."""


class MeasurementOutput(NamedTuple):
    """Raw output of one self-measurement performed by the architecture.

    ``timestamp`` comes from the RROC, ``digest`` is ``H(mem_t)``,
    ``tag`` is ``MAC_K(t, H(mem_t))`` and ``duration`` is the modelled
    run-time of the measurement on the target device.
    """

    timestamp: float
    digest: bytes
    tag: bytes
    duration: float
    memory_bytes: int


_TIMESTAMP = struct.Struct(">Q")


def encode_timestamp(timestamp: float) -> bytes:
    """Canonical byte encoding of a timestamp for MAC computation.

    Timestamps are RROC cycle-derived seconds; we encode them as a
    fixed-point 64-bit integer of microseconds so that prover and
    verifier always MAC exactly the same bytes.
    """
    return _TIMESTAMP.pack(round(timestamp * 1_000_000))


class _AtomicGuard:
    """The architecture's protected-execution context, entered with ``with``.

    Entry fails if the architecture is already inside (atomic code
    cannot be re-entered) or if its own entry checks fail; the flag is
    cleared on every exit, including one by exception.
    """

    __slots__ = ("_architecture",)

    def __init__(self, architecture: "SecurityArchitecture") -> None:
        self._architecture = architecture

    def __enter__(self) -> None:
        architecture = self._architecture
        if architecture._in_protected_execution:
            raise ArchitectureError(architecture._NESTED_ENTRY_ERROR)
        architecture._check_entry()
        architecture._in_protected_execution = True

    def __exit__(self, *exc_info) -> None:
        self._architecture._in_protected_execution = False


class SecurityArchitecture(abc.ABC):
    """Interface ERASMUS requires from the underlying hybrid architecture.

    Concrete subclasses (SMART+, HYDRA) own the device memory, the key,
    the RROC and the cost model; the core protocol layer only calls the
    methods defined here.

    Everything a measurement needs that depends only on the device's
    fixed configuration is resolved at construction: the process's
    crypto provider, its hash ``H`` and keyed MAC for ``mac_name``, the
    one measured region (``measured_region``) and the modelled
    measurement run-time (region sizes never change: writes replace
    equal-length slices).  What the paper protects is still checked on
    every measurement: the atomic guard, the subclass's entry checks,
    the region access policies and the read of ``K`` from inside the
    protected context.
    """

    #: Each architecture's message for a nested protected entry.
    _NESTED_ENTRY_ERROR: str

    def __init__(self, memory: DeviceMemory, cost_model: DeviceCostModel,
                 mac_name: str, measured_region: str) -> None:
        self.memory = memory
        self.cost_model = cost_model
        self.mac_name = get_mac(mac_name).name
        self.crypto_backend = get_backend()
        self.hash_function = hash_for_mac(self.mac_name)
        self._keyed_mac = self.crypto_backend.keyed_mac(self.mac_name)
        self.measured_region = measured_region
        self._measured_bytes = self.measured_memory_bytes()
        self._measurement_duration = cost_model.measurement_runtime(
            self._measured_bytes, self.mac_name)
        self.measurements_performed = 0
        self.aborted_measurements = 0
        self._last_request_time: float | None = None
        self._in_protected_execution = False
        self._guard = _AtomicGuard(self)

    # ------------------------------------------------------------------
    # Clock and key access (architecture-specific)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def read_clock(self) -> float:
        """Read the reliable read-only clock (seconds since boot)."""

    @abc.abstractmethod
    def advance_clock(self, time_seconds: float) -> None:
        """Advance the device clock to an absolute simulation time."""

    @abc.abstractmethod
    def _read_key(self) -> bytes:
        """Read ``K`` from within the attestation context.

        Only the architecture's own protected code paths call this; it
        raises :class:`ArchitectureError` outside protected execution,
        and anything else reading the key region raises an access
        violation.
        """

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measured_memory_bytes(self) -> int:
        """Size of the memory covered by a measurement."""
        return self.memory.region(self.measured_region).size

    def read_measured_memory(self) -> bytes:
        """Read the measured region from the attestation context."""
        return self.memory.read_region(self.measured_region,
                                       AccessContext.ATTESTATION)

    def perform_measurement(self, abort: bool = False) -> MeasurementOutput:
        """Compute one self-measurement ``<t, H(mem_t), MAC_K(t, H(mem_t))>``.

        The computation happens inside the architecture's protected
        context (modelled by :meth:`_protected_execution`).  ``abort=True``
        models the Section 5 situation where a time-critical task
        pre-empts the measurement: the architecture cleans up and raises
        :class:`MeasurementAborted` without producing a record.
        ``duration`` is the run-time resolved at construction.
        """
        with self._guard:
            if abort:
                self.aborted_measurements += 1
                raise MeasurementAborted(
                    "measurement aborted by a time-critical task")
            timestamp = self.read_clock()
            digest = self.hash_function(self.read_measured_memory())
            tag = self._keyed_mac(self._read_key(),
                                  encode_timestamp(timestamp) + digest)
            self.measurements_performed += 1
            return MeasurementOutput(timestamp, digest, tag,
                                     self._measurement_duration,
                                     self._measured_bytes)

    # ------------------------------------------------------------------
    # Verifier-request authentication (on-demand / ERASMUS+OD only)
    # ------------------------------------------------------------------
    def authenticate_request(self, payload: bytes, tag: bytes,
                             request_time: float,
                             freshness_window: float = 60.0) -> bool:
        """Authenticate a verifier request as SMART+ prescribes.

        Checks (1) the request timestamp is strictly newer than the last
        accepted one (anti-replay), (2) it is within ``freshness_window``
        seconds of the RROC (anti-delay), and (3) the MAC over the
        payload verifies under ``K``.
        """
        now = self.read_clock()
        if self._last_request_time is not None and \
                request_time <= self._last_request_time:
            return False
        if abs(now - request_time) > freshness_window:
            return False
        with self._guard:
            valid = constant_time_compare(self._keyed_mac(
                self._read_key(), encode_timestamp(request_time) + payload),
                tag)
        if valid:
            self._last_request_time = request_time
        return valid

    def request_auth_runtime(self) -> float:
        """Modelled run-time of authenticating one verifier request."""
        return self.cost_model.request_auth_runtime(self.mac_name)

    # ------------------------------------------------------------------
    # Protected execution
    # ------------------------------------------------------------------
    def _protected_execution(self) -> _AtomicGuard:
        """The guard of the architecture's protected execution mode.

        One guard per device: entering it while inside raises
        :class:`ArchitectureError` with :attr:`_NESTED_ENTRY_ERROR`,
        then runs :meth:`_check_entry`.  SMART+ models ROM execution
        with interrupts disabled; HYDRA models the PrAtt process running
        at the highest priority with exclusive capabilities.
        """
        return self._guard

    def _check_entry(self) -> None:
        """Architecture-specific conditions checked on every protected entry.

        Raise :class:`ArchitectureError` to refuse entry; none by default.
        """

    # ------------------------------------------------------------------
    # Introspection used by the application / adversary layers
    # ------------------------------------------------------------------
    def application_read(self, region: str) -> bytes:
        """Read device memory from the (untrusted) normal world."""
        return self.memory.read_region(region, context=AccessContext.NORMAL)
