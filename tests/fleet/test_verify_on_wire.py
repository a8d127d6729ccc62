"""Regression guards for verification on the received bytes.

A fleet round MACs each record's received timestamp bytes and digest;
it must never fall back to re-encoding the decoded fields, and a
worker's ``memoryview`` payload must judge exactly like ``bytes``.
"""

import struct

import pytest

from repro.core import DeviceStatus, Measurement
from repro.core.protocol import ProtocolDecodeError, decode_response
from repro.fleet import Fleet
from tests.fleet.helpers import oracle_report, small_profile

FIRMWARE = b"wire-test-firmware!!"
MALWARE = b"wire-test-implant!!!"


def provision(count=12) -> Fleet:
    fleet = Fleet.provision(small_profile(FIRMWARE), count,
                            master_secret=b"master")
    if count > 2:
        fleet.device("dev-0002").load_application(MALWARE)
    fleet.run_until(60.0)
    return fleet


def round_payloads(fleet):
    request = fleet.verifier.create_collect_request().encode()
    return fleet.transport.exchange_many(
        {device_id: request for device_id in fleet.device_ids()})


def test_fleet_round_never_re_encodes_a_mac_input(monkeypatch):
    calls = {"authenticated_payload": 0, "mac_input": 0}
    rebuild = Measurement.authenticated_payload
    received = Measurement.mac_input

    def counted_rebuild(self):
        calls["authenticated_payload"] += 1
        return rebuild(self)

    def counted_received(self):
        calls["mac_input"] += 1
        return received(self)

    monkeypatch.setattr(Measurement, "authenticated_payload",
                        counted_rebuild)
    monkeypatch.setattr(Measurement, "mac_input", counted_received)
    fleet = provision()
    reports = fleet.collect_all()
    assert calls["authenticated_payload"] == 0
    assert calls["mac_input"] == sum(r.measurement_count for r in reports) > 0
    statuses = {r.device_id: r.status for r in reports}
    assert statuses.pop("dev-0002") is DeviceStatus.INFECTED
    assert set(statuses.values()) == {DeviceStatus.HEALTHY}


def test_fast_path_judges_views_like_bytes():
    fleet = provision()
    verifier = fleet.verifier
    now = fleet.now
    for device_id, payload in round_payloads(fleet).items():
        from_bytes = verifier._verify_payload(device_id, payload, now)
        from_view = verifier._verify_payload(
            device_id, memoryview(payload).toreadonly(), now)
        assert from_view.to_row() == from_bytes.to_row()
        assert from_view.verdicts == from_bytes.verdicts


def test_undecodable_response_reports_keep_their_anomaly_text():
    fleet = provision(1)
    verifier = fleet.verifier
    payload = round_payloads(fleet)["dev-0000"]
    wrong_tag_length = bytearray(payload)
    # First record: response header (3), length prefix (2), timestamp
    # (8), digest length (2), then the tag length.
    struct.pack_into(">H", wrong_tag_length, 15, 7)
    cases = {
        payload[:4]: "truncated measurement list",
        payload[:-1]: "truncated measurement record",
        payload + b"\x00": "trailing bytes after measurement list",
        bytes(wrong_tag_length): "measurement record has ",
    }
    for corrupted, message in cases.items():
        with pytest.raises(ProtocolDecodeError) as caught:
            decode_response(corrupted)
        raised = str(caught.value)
        assert raised.startswith(message)
        for report in (
                oracle_report(verifier, "dev-0000", corrupted, fleet.now),
                verifier._verify_payload("dev-0000", corrupted, fleet.now)):
            assert report.status is DeviceStatus.TAMPERED
            assert report.anomalies == [
                f"response could not be decoded: {raised}"]
