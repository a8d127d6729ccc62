"""On-demand attestation baseline (SMART+-style).

This is the approach ERASMUS is compared against throughout the paper:
the verifier sends an authenticated, timestamped request; the prover
authenticates it (anti-DoS), computes a measurement of its *current*
state in real time, and returns it.  There is no stored history, so:

* mobile malware that left before the request goes undetected;
* every attestation costs the prover a full measurement while the
  verifier waits.

The classes below deliberately mirror :class:`repro.core.prover.
ErasmusProver` / :class:`repro.core.verifier.ErasmusVerifier` so the
experiments can swap one for the other.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.arch.base import MeasurementAborted, SecurityArchitecture, \
    encode_timestamp
from repro.core.config import ErasmusConfig
from repro.core.measurement import Measurement
from repro.core.protocol import OnDemandRequest, OnDemandResponse
from repro.core.verifier import DeviceStatus, MeasurementVerdict, \
    VerificationReport
from repro.crypto.mac import get_mac


class OnDemandProver:
    """A prover that only supports classic on-demand attestation."""

    def __init__(self, architecture: SecurityArchitecture,
                 config: ErasmusConfig, device_id: str = "prover") -> None:
        self.architecture = architecture
        self.config = config
        self.device_id = device_id
        self.attestations_served = 0
        self.requests_refused = 0

    def handle_request(self, request: OnDemandRequest,
                       time: Optional[float] = None) -> OnDemandResponse:
        """Authenticate the request and attest the current state."""
        if time is not None:
            self.architecture.advance_clock(time)
        authentic = self.architecture.authenticate_request(
            payload=b"", tag=request.tag, request_time=request.request_time,
            freshness_window=self.config.request_freshness_window)
        if not authentic:
            self.requests_refused += 1
            return OnDemandResponse(fresh=None, measurements=[])
        try:
            output = self.architecture.perform_measurement()
        except MeasurementAborted:
            return OnDemandResponse(fresh=None, measurements=[])
        self.attestations_served += 1
        return OnDemandResponse(fresh=Measurement.from_output(output),
                                measurements=[])

    def attestation_runtime(self) -> float:
        """Prover-side run-time of one on-demand attestation."""
        return self.architecture.cost_model.attestation_runtime(
            self.architecture.measured_memory_bytes(),
            self.architecture.mac_name, on_demand=True)


class OnDemandVerifier:
    """A verifier using only on-demand attestation."""

    def __init__(self, config: ErasmusConfig) -> None:
        self.config = config
        self.mac_algorithm = get_mac(config.mac_name)
        self._keys: Dict[str, bytes] = {}
        self._healthy_digests: Dict[str, set[bytes]] = {}
        self.reports: list[VerificationReport] = []
        self._request_counter = 0.0

    def enroll(self, device_id: str, key: bytes,
               healthy_digests: Iterable[bytes]) -> None:
        """Register a prover: its shared key and its known-good states."""
        if not key:
            raise ValueError("the shared key must be non-empty")
        self._keys[device_id] = bytes(key)
        self._healthy_digests[device_id] = {bytes(d) for d in healthy_digests}

    def create_request(self, device_id: str,
                       request_time: float) -> OnDemandRequest:
        """Build an authenticated attestation request."""
        key = self._keys[device_id]
        if request_time <= self._request_counter:
            request_time = self._request_counter + 1e-6
        self._request_counter = request_time
        tag = self.mac_algorithm.mac(key, encode_timestamp(request_time))
        return OnDemandRequest(request_time=request_time, k=0, tag=tag)

    def verify_response(self, device_id: str, request: OnDemandRequest,
                        response: OnDemandResponse,
                        collection_time: float) -> VerificationReport:
        """Verify the single fresh measurement returned by the prover."""
        key = self._keys[device_id]
        report = VerificationReport(device_id=device_id,
                                    collection_time=collection_time,
                                    status=DeviceStatus.HEALTHY)
        if response.fresh is None:
            report.status = DeviceStatus.NO_DATA
            report.anomalies.append("prover returned no measurement")
            self.reports.append(report)
            return report
        measurement = response.fresh
        authentic = self.mac_algorithm.verify(
            key, measurement.mac_input(), measurement.tag)
        # Public whitelist membership; the MAC check above is the
        # authentication decision.
        # statics: ok(constant-time)
        healthy = measurement.digest in self._healthy_digests[device_id]
        verdict = MeasurementVerdict(measurement=measurement,
                                     authentic=authentic, healthy=healthy)
        report.verdicts.append(verdict)
        report.freshness = collection_time - measurement.timestamp
        if not authentic or measurement.timestamp + 1e-6 < request.request_time:
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append("fresh measurement is invalid or stale")
        elif not healthy:
            report.status = DeviceStatus.INFECTED
        self.reports.append(report)
        return report
