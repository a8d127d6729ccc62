"""Tests for the from-scratch SHA-1 implementation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha1 import Sha1


def sha1_digest(data):
    return Sha1(data).digest()


KNOWN_VECTORS = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_known_vectors(message, expected):
    assert sha1_digest(message).hex() == expected


def test_streaming_equals_one_shot():
    hasher = Sha1()
    hasher.update(b"foo")
    hasher.update(b"bar")
    assert hasher.digest() == sha1_digest(b"foobar")


def test_copy_is_independent():
    hasher = Sha1(b"base")
    clone = hasher.copy()
    clone.update(b"!")
    assert hasher.digest() == sha1_digest(b"base")
    assert clone.digest() == sha1_digest(b"base!")


def test_digest_size_and_block_size():
    assert Sha1.digest_size == 20
    assert Sha1.block_size == 64
    assert len(sha1_digest(b"data")) == 20


def test_rejects_non_bytes_input():
    with pytest.raises(TypeError):
        Sha1().update(12345)


def test_compression_counter():
    hasher = Sha1(b"y" * 130)
    assert hasher.compressions == 2


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=3000))
def test_matches_hashlib(data):
    assert sha1_digest(data) == hashlib.sha1(data).digest()
