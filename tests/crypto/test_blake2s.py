"""Tests for the from-scratch BLAKE2s implementation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blake2s import Blake2s, keyed_blake2s


def blake2s_digest(data, digest_size=32):
    return Blake2s(data, digest_size=digest_size).digest()


def test_rfc7693_abc_vector():
    # Appendix B of RFC 7693.
    expected = ("508c5e8c327c14e2e1a72ba34eeb452f"
                "37458b209ed63a294d999b4c86675982")
    assert blake2s_digest(b"abc").hex() == expected


def test_empty_message_matches_hashlib():
    assert blake2s_digest(b"") == hashlib.blake2s(b"").digest()


def test_keyed_mac_matches_hashlib():
    key = b"\x01" * 32
    data = b"measurement payload"
    assert keyed_blake2s(key, data) == hashlib.blake2s(data, key=key).digest()


def test_keyed_mac_differs_from_unkeyed():
    assert keyed_blake2s(b"k", b"data") != blake2s_digest(b"data")


def test_different_keys_give_different_macs():
    assert keyed_blake2s(b"key-one", b"data") != keyed_blake2s(b"key-two",
                                                               b"data")


def test_truncated_digest_sizes():
    for size in (1, 16, 20, 32):
        digest = blake2s_digest(b"payload", digest_size=size)
        assert len(digest) == size
        assert digest == hashlib.blake2s(b"payload",
                                         digest_size=size).digest()


def test_rejects_invalid_digest_size():
    with pytest.raises(ValueError):
        Blake2s(digest_size=0)
    with pytest.raises(ValueError):
        Blake2s(digest_size=33)


def test_rejects_oversized_key():
    with pytest.raises(ValueError):
        Blake2s(key=b"\x00" * 33)


def test_streaming_equals_one_shot():
    hasher = Blake2s()
    hasher.update(b"chunk one ")
    hasher.update(b"chunk two")
    assert hasher.digest() == blake2s_digest(b"chunk one chunk two")


def test_update_after_digest_raises():
    hasher = Blake2s(b"data")
    hasher.digest()
    with pytest.raises(ValueError):
        hasher.update(b"more")


def test_copy_preserves_state():
    hasher = Blake2s(b"prefix", key=b"k")
    clone = hasher.copy()
    clone.update(b"-suffix")
    assert hasher.digest() == keyed_blake2s(b"k", b"prefix")
    assert clone.digest() == keyed_blake2s(b"k", b"prefix-suffix")


def test_exact_block_boundary():
    # 64- and 128-byte messages exercise the "keep one block buffered" rule.
    for size in (63, 64, 65, 128, 129):
        data = bytes(range(256))[:size] * 1
        assert blake2s_digest(data[:size]) == \
            hashlib.blake2s(data[:size]).digest()


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=2000),
       st.binary(min_size=0, max_size=32))
def test_matches_hashlib_keyed_and_unkeyed(data, key):
    if key:
        assert keyed_blake2s(key, data) == \
            hashlib.blake2s(data, key=key).digest()
    else:
        assert blake2s_digest(data) == hashlib.blake2s(data).digest()
