"""Regression guards for verification on the received bytes.

A fleet round MACs each record's received timestamp bytes and digest,
once per record; it must never fall back to re-encoding the decoded
fields, and a worker's ``memoryview`` payload must judge exactly like
``bytes``.
"""

import gc
import struct

import pytest

from repro.core import DeviceStatus, Measurement, MeasurementVerdict
from repro.core.protocol import ProtocolDecodeError, decode_response
from repro.crypto import get_backend
from repro.fleet import Fleet, service
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


def received_mac_inputs(payload: bytes):
    """Each record's received timestamp bytes and digest, walked by hand.

    Response header (3), then per record: length prefix (2), timestamp
    (8), digest and tag lengths (4), digest, tag.
    """
    (count,) = struct.unpack_from(">H", payload, 1)
    offset = 3
    for _ in range(count):
        length, digest_len = struct.unpack_from(">H8xH", payload, offset)
        start = offset + 2
        digest = payload[start + 12:start + 12 + digest_len]
        yield payload[start:start + 8] + digest
        offset = start + length


def test_fleet_round_never_re_encodes_a_mac_input(monkeypatch):
    calls = {"authenticated_payload": 0}
    macced = []
    payloads = []
    rebuild = Measurement.authenticated_payload
    backend_type = type(get_backend())
    mac_function = backend_type.mac_function
    decode = service.decode_response

    def counted_rebuild(self):
        calls["authenticated_payload"] += 1
        return rebuild(self)

    def recording_mac_function(self, mac_name, key):
        mac = mac_function(self, mac_name, key)

        def recorded(data):
            macced.append(bytes(data))
            return mac(data)
        return recorded

    def recording_decode(payload):
        payloads.append(bytes(payload))
        return decode(payload)

    monkeypatch.setattr(Measurement, "authenticated_payload",
                        counted_rebuild)
    monkeypatch.setattr(backend_type, "mac_function", recording_mac_function)
    monkeypatch.setattr(service, "decode_response", recording_decode)
    fleet = provision()
    del macced[:], payloads[:]
    reports = fleet.collect_all()
    assert calls["authenticated_payload"] == 0
    # Every MAC the round computes covers exactly one record's received
    # timestamp bytes and digest, and every record gets one.
    expected = [received for payload in payloads
                for received in received_mac_inputs(payload)]
    assert len(macced) == sum(r.measurement_count for r in reports) > 0
    assert sorted(macced) == sorted(expected)
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


def per_record_objects():
    """Live decoded records and verdicts (prover-side records excluded)."""
    return [obj for obj in gc.get_objects()
            if type(obj) is MeasurementVerdict
            or (type(obj) is Measurement
                and vars(obj).get("_received") is not None)]


def test_round_keeps_no_per_record_objects_until_asked(monkeypatch):
    payloads = []
    decode = service.decode_response

    def recording_decode(payload):
        payloads.append(bytes(payload))
        return decode(payload)

    fleet = provision()
    gc.collect()
    before = per_record_objects()
    monkeypatch.setattr(service, "decode_response", recording_decode)
    reports = fleet.collect_all()
    gc.collect()
    known = {id(obj) for obj in before}
    assert [obj for obj in per_record_objects()
            if id(obj) not in known] == []
    assert len(payloads) == len(reports)

    # Same collection time and key: the reference verdicts on the same
    # bytes (they do not depend on the advanced last-seen mark).
    responses = round_payloads(fleet)
    assert sorted(responses.values()) == sorted(payloads)
    for report in reports:
        reference = oracle_report(fleet.verifier, report.device_id,
                                  responses[report.device_id], fleet.now)
        assert report.verdicts == reference.verdicts
        assert [hash(v) for v in report.verdicts] == \
            [hash(v) for v in reference.verdicts]
        assert len(report.verdicts) == report.measurement_count > 0
