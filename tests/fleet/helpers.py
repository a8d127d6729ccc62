"""Shared helpers for the fleet test modules."""

import json

from repro.core import DeviceStatus, VerificationReport
from repro.core.protocol import (
    OnDemandResponse,
    ProtocolDecodeError,
    decode_response,
)
from repro.fleet import DeviceProfile


def small_profile(firmware: bytes) -> DeviceProfile:
    """The compact SMART+ profile the fleet suites exercise."""
    return DeviceProfile.smartplus(firmware=firmware, application_size=256,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=8)


def report_key(report):
    """The observable identity of one report, for path-equivalence asserts.

    Every field a collection path could plausibly diverge on; extend
    here (once) when :class:`VerificationReport` grows.
    """
    return (report.device_id, report.status.value, report.measurement_count,
            report.freshness, report.missing_intervals,
            tuple(report.anomalies))


def health_bytes(verifier) -> bytes:
    """Canonical bytes of a verifier's health row (merge-identity asserts)."""
    return json.dumps(verifier.health.to_row(), sort_keys=True,
                      separators=(",", ":")).encode()


def oracle_report(verifier, device_id, payload, collection_time):
    """The reference verdict on one raw collect response.

    Decodes with :func:`decode_response` and judges through
    :meth:`VerificationCore.verify_measurements` — the oracle every
    collection path is checked against.  Silence is NO_DATA;
    undecodable bytes and an on-demand answer to a plain collection
    are TAMPERED.
    """
    def outcome(status, anomaly):
        return VerificationReport(device_id=device_id,
                                  collection_time=collection_time,
                                  status=status, anomalies=[anomaly])

    if payload is None:
        return outcome(DeviceStatus.NO_DATA, "no response received")
    try:
        response = decode_response(payload)
    except ProtocolDecodeError as exc:
        return outcome(DeviceStatus.TAMPERED,
                       f"response could not be decoded: {exc}")
    if isinstance(response, OnDemandResponse):
        return outcome(DeviceStatus.TAMPERED,
                       "unexpected on-demand response to a plain collection")
    return verifier.core.verify_measurements(
        verifier._enrollment_for(device_id), list(response.measurements),
        collection_time)


def oracle_round(fleet):
    """Oracle reports for one round over the whole fleet, uncommitted."""
    request = fleet.verifier.create_collect_request().encode()
    responses = fleet.transport.exchange_many(
        {device_id: request for device_id in fleet.device_ids()})
    return [oracle_report(fleet.verifier, device_id, responses[device_id],
                          fleet.now)
            for device_id in fleet.device_ids()]
