"""Tests for the HMAC construction over the from-scratch hashes."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import Hmac


def hmac_digest(key, data, hash_name="sha256"):
    """One-shot HMAC through the from-scratch streaming class."""
    return Hmac(key, data, hash_name=hash_name).digest()


def test_rfc4231_case_1():
    key = b"\x0b" * 20
    data = b"Hi There"
    expected = ("b0344c61d8db38535ca8afceaf0bf12b"
                "881dc200c9833da726e9376c2e32cff7")
    assert hmac_digest(key, data, "sha256").hex() == expected


def test_rfc2202_sha1_case_2():
    assert hmac_digest(b"Jefe", b"what do ya want for nothing?",
                       "sha1").hex() == \
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"


def test_long_key_is_hashed_first():
    key = b"\xaa" * 131
    data = b"Test Using Larger Than Block-Size Key - Hash Key First"
    assert hmac_digest(key, data, "sha256") == \
        stdlib_hmac.new(key, data, hashlib.sha256).digest()


def test_streaming_equals_one_shot():
    mac = Hmac(b"key", hash_name="sha256")
    mac.update(b"part one ")
    mac.update(b"part two")
    assert mac.digest() == stdlib_hmac.digest(b"key", b"part one part two",
                                              "sha256")


def test_copy_is_independent():
    mac = Hmac(b"key", b"base", hash_name="sha256")
    clone = mac.copy()
    clone.update(b"-more")
    assert mac.digest() == stdlib_hmac.digest(b"key", b"base", "sha256")
    assert clone.digest() == stdlib_hmac.digest(b"key", b"base-more",
                                                "sha256")


def test_unknown_hash_rejected():
    with pytest.raises(ValueError):
        Hmac(b"key", hash_name="md5")


def test_name_and_sizes():
    mac = Hmac(b"key", hash_name="sha1")
    assert mac.name == "hmac-sha1"
    assert mac.digest_size == 20
    assert mac.block_size == 64


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=100),
       st.binary(min_size=0, max_size=1500),
       st.sampled_from(["sha1", "sha256"]))
def test_matches_stdlib(key, data, hash_name):
    reference = stdlib_hmac.new(
        key, data, hashlib.sha1 if hash_name == "sha1" else hashlib.sha256)
    assert hmac_digest(key, data, hash_name) == reference.digest()
