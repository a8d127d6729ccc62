"""Tests for the MAC registry's metadata and the constant-time comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare
from repro.crypto.mac import get_mac

PAPER_MACS = ("hmac-sha1", "hmac-sha256", "keyed-blake2s")


def test_three_paper_macs_are_registered():
    for name in PAPER_MACS:
        assert get_mac(name).name == name


def test_sha1_is_marked_deprecated():
    assert get_mac("hmac-sha1").deprecated
    assert not get_mac("hmac-sha256").deprecated


def test_lookup_is_case_insensitive():
    assert get_mac("HMAC-SHA256") is get_mac("hmac-sha256")


def test_unknown_mac_raises():
    with pytest.raises(ValueError, match="unknown MAC"):
        get_mac("poly1305")


def test_mac_and_verify_roundtrip():
    provider = get_backend()
    for name in PAPER_MACS:
        tag = provider.mac(name, b"secret key", b"message")
        assert len(tag) == get_mac(name).digest_size
        assert constant_time_compare(
            provider.mac(name, b"secret key", b"message"), tag)
        assert not constant_time_compare(
            provider.mac(name, b"secret key", b"other message"), tag)
        assert not constant_time_compare(
            provider.mac(name, b"wrong key", b"message"), tag)


def test_compression_count_monotonic_in_length():
    algorithm = get_mac("keyed-blake2s")
    counts = [algorithm.compression_count(length)
              for length in (0, 64, 128, 1024, 10 * 1024)]
    assert counts == sorted(counts)
    assert counts[0] >= 1


def test_compression_count_rejects_negative():
    with pytest.raises(ValueError):
        get_mac("hmac-sha256").compression_count(-1)


def test_constant_time_compare_basics():
    assert constant_time_compare(b"same bytes", b"same bytes")
    assert not constant_time_compare(b"same bytes", b"Same bytes")
    assert not constant_time_compare(b"short", b"longer value")
    assert constant_time_compare(b"", b"")


def test_constant_time_compare_type_check():
    with pytest.raises(TypeError):
        constant_time_compare("text", b"bytes")


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64), st.binary(max_size=64))
def test_constant_time_compare_matches_equality(left, right):
    assert constant_time_compare(left, right) == (left == right)
