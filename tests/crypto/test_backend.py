"""Cross-backend equivalence: reference vs accelerated crypto providers.

The process-wide provider choice promises that the two providers are
bit-for-bit interchangeable.  This suite pins both to the standard
FIPS 180 / RFC 2202 / RFC 4231 / RFC 7693 test vectors, fuzzes them
against each other on randomized keys and messages for every
registered MAC, and checks that HMAC-DRBG streams (single-call and
batched) are identical no matter which provider computes them.
"""

import random

import pytest

from repro.crypto import backend as backend_mod
from repro.crypto.backend import (
    AcceleratedBackend,
    ReferenceBackend,
    default_backend_name,
    get_backend,
    use_backend,
)
from repro.crypto.csprng import HmacDrbg
from repro.crypto.mac import get_mac

REFERENCE = get_backend("reference")
ACCELERATED = get_backend("accelerated")
BACKENDS = (REFERENCE, ACCELERATED)

# (hash_name, message, expected digest) — FIPS 180-2 / RFC 7693.
HASH_VECTORS = [
    ("sha1", b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    ("sha256", b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ("blake2s", b"abc",
     "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"),
]

# (mac_name, key, message, expected tag) — RFC 2202 / RFC 4231 case 1
# and the RFC 7693 appendix E keyed BLAKE2s vector.
MAC_VECTORS = [
    ("hmac-sha1", b"\x0b" * 20, b"Hi There",
     "b617318655057264e28bc0b6fb378c8ef146be00"),
    ("hmac-sha256", b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    ("keyed-blake2s", bytes(range(32)), b"",
     "48a8997da407876b3d79c0d92325ad3b89cbb754d86ab71aee047ad345fd2c49"),
]


# ----------------------------------------------------------------------
# Known-answer vectors, both providers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hash_name,message,expected", HASH_VECTORS)
@pytest.mark.parametrize("provider", BACKENDS, ids=lambda b: b.name)
def test_hash_vectors(provider, hash_name, message, expected):
    assert provider.hash_digest(hash_name, message).hex() == expected
    assert provider.hash_function(hash_name)(message).hex() == expected


@pytest.mark.parametrize("mac_name,key,message,expected", MAC_VECTORS)
@pytest.mark.parametrize("provider", BACKENDS, ids=lambda b: b.name)
def test_mac_vectors(provider, mac_name, key, message, expected):
    assert provider.mac(mac_name, key, message).hex() == expected
    assert provider.keyed_mac(mac_name)(key, message).hex() == expected


@pytest.mark.parametrize("provider", BACKENDS, ids=lambda b: b.name)
def test_hmac_digest_helper_matches_backend(provider):
    tag = provider.hmac_digest("sha1", b"\x0b" * 20, b"Hi There")
    assert tag.hex() == "b617318655057264e28bc0b6fb378c8ef146be00"


# ----------------------------------------------------------------------
# Randomized fuzz: reference == accelerated for every registered MAC
# ----------------------------------------------------------------------
def _fuzz_cases(seed, count, max_key_len=96):
    rng = random.Random(seed)
    for _ in range(count):
        key = rng.randbytes(rng.randint(1, max_key_len))
        message = rng.randbytes(rng.randint(0, 512))
        yield key, message


@pytest.mark.parametrize("name", ["hmac-sha1", "hmac-sha256",
                                  "keyed-blake2s"])
def test_mac_fuzz_equivalence(name):
    algorithm = get_mac(name)
    # BLAKE2s keys are at most 32 bytes; HMAC keys may be any length.
    max_key_len = 32 if "blake2s" in name else 96
    for key, message in _fuzz_cases(seed=name, count=40,
                                    max_key_len=max_key_len):
        reference_tag = REFERENCE.mac(name, key, message)
        accelerated_tag = ACCELERATED.mac(name, key, message)
        assert reference_tag == accelerated_tag
        assert len(reference_tag) == algorithm.digest_size
        assert REFERENCE.mac_function(name, key)(message) == \
            ACCELERATED.mac_function(name, key)(message)
        assert REFERENCE.keyed_mac(name)(key, message) == \
            ACCELERATED.keyed_mac(name)(key, message) == reference_tag


@pytest.mark.parametrize("name", ["hmac-sha1", "hmac-sha256",
                                  "keyed-blake2s", "KEYED-BLAKE2S"])
def test_prekeyed_mac_function_never_mutates_its_keyed_state(name):
    # The accelerated mac_function keys one state per device and copies
    # it per call.  Calls of every length around the 64-byte block
    # boundary, repeated and interleaved across two keys, must each
    # equal a freshly keyed MAC, so no call leaves data in the state.
    rng = random.Random(f"prekeyed/{name}")
    keys = [rng.randbytes(32), rng.randbytes(17)]
    closures = [ACCELERATED.mac_function(name, key) for key in keys]
    lengths = [0, 1, 31, 32, 55, 56, 63, 64, 65, 119, 127, 128, 129, 200]
    messages = [rng.randbytes(length) for length in lengths]
    for _ in range(2):
        for message in messages + messages[::-1]:
            for key, closure, reference in zip(
                    keys, closures,
                    [REFERENCE.mac_function(name, key) for key in keys]):
                tag = closure(message)
                assert tag == closure(message)
                assert tag == ACCELERATED.keyed_mac(name)(key, message)
                assert tag == reference(message)
    assert closures[0](b"") != closures[1](b"")


def test_prekeyed_mac_function_rejects_unknown_names_when_built():
    with pytest.raises(ValueError, match="cannot compute MAC"):
        ACCELERATED.mac_function("hmac-md5", b"k")


@pytest.mark.parametrize("hash_name", ["sha1", "sha256", "blake2s"])
def test_hash_fuzz_equivalence(hash_name):
    for _, message in _fuzz_cases(seed=hash_name, count=40):
        assert REFERENCE.hash_digest(hash_name, message) == \
            ACCELERATED.hash_digest(hash_name, message) == \
            REFERENCE.hash_function(hash_name)(message) == \
            ACCELERATED.hash_function(hash_name)(message)


# ----------------------------------------------------------------------
# Resolved primitives: one shared callable per provider and name
# ----------------------------------------------------------------------
PAPER_HASHES = ["sha1", "sha256", "blake2s"]
PAPER_MACS = ["hmac-sha1", "hmac-sha256", "keyed-blake2s"]


@pytest.mark.parametrize("provider", BACKENDS, ids=lambda b: b.name)
def test_resolved_callables_are_shared(provider):
    for hash_name in PAPER_HASHES:
        assert provider.hash_function(hash_name) is \
            provider.hash_function(hash_name.upper())
    for mac_name in PAPER_MACS:
        assert provider.keyed_mac(mac_name) is provider.keyed_mac(mac_name)


def test_architectures_share_the_resolved_callables(key):
    from repro.smartplus import build_smartplus_architecture

    first, second = (build_smartplus_architecture(key, application_size=64)
                     for _ in range(2))
    assert first.hash_function is second.hash_function
    assert first._keyed_mac is second._keyed_mac


# ----------------------------------------------------------------------
# HMAC-DRBG streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
def test_drbg_streams_identical_across_backends(hash_name):
    with use_backend("reference"):
        reference = HmacDrbg(b"equiv-seed", personalization=b"p",
                             hash_name=hash_name)
    with use_backend("accelerated"):
        accelerated = HmacDrbg(b"equiv-seed", personalization=b"p",
                               hash_name=hash_name)
    for length in (1, 16, 33, 64):
        assert reference.generate(length) == accelerated.generate(length)
    assert reference.uniform(10.0, 20.0) == accelerated.uniform(10.0, 20.0)
    assert reference.generate_batch(8, 5) == accelerated.generate_batch(8, 5)
    assert reference.uniform_batch(0.0, 1.0, 5) == \
        accelerated.uniform_batch(0.0, 1.0, 5)


@pytest.mark.parametrize("provider", BACKENDS, ids=lambda b: b.name)
def test_hash_names_are_case_insensitive(provider):
    with use_backend(provider.name):
        assert HmacDrbg(b"s", hash_name="SHA256").generate(8) == \
            HmacDrbg(b"s", hash_name="sha256").generate(8)
    assert provider.hash_digest("SHA1", b"abc") == \
        provider.hash_digest("sha1", b"abc")


# ----------------------------------------------------------------------
# Selection semantics
# ----------------------------------------------------------------------
def test_both_providers_registered():
    assert REFERENCE.name == "reference"
    assert ACCELERATED.name == "accelerated"


def test_get_backend_resolves_names():
    assert get_backend("Accelerated") is ACCELERATED
    assert get_backend("REFERENCE") is REFERENCE
    assert isinstance(get_backend("reference"), ReferenceBackend)
    assert isinstance(get_backend("accelerated"), AcceleratedBackend)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown crypto backend"):
        get_backend("openssl3")
    with pytest.raises(ValueError, match="unknown crypto backend"):
        with use_backend("openssl3"):
            pass


def test_builtin_default_is_accelerated(monkeypatch):
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    monkeypatch.setattr(backend_mod, "_scoped", None)
    assert default_backend_name() == "accelerated"
    assert get_backend() is ACCELERATED


def test_env_var_selects_default(monkeypatch):
    monkeypatch.setattr(backend_mod, "_scoped", None)
    monkeypatch.setenv(backend_mod.ENV_VAR, "REFERENCE")
    assert default_backend_name() == "reference"
    assert get_backend() is REFERENCE


def test_use_backend_overrides_env(monkeypatch):
    monkeypatch.setenv(backend_mod.ENV_VAR, "accelerated")
    with use_backend("reference"):
        assert get_backend() is REFERENCE
    assert get_backend() is ACCELERATED


def test_use_backend_scopes_the_override():
    before = default_backend_name()
    with use_backend("reference") as provider:
        assert provider is REFERENCE
        assert get_backend() is REFERENCE
    assert default_backend_name() == before


def test_unknown_primitives_rejected():
    for provider in BACKENDS:
        with pytest.raises(ValueError):
            provider.hash_digest("md5-but-wrong", b"")
        with pytest.raises(ValueError):
            provider.digest_size("md5-but-wrong")
        with pytest.raises(ValueError):
            provider.mac("cmac-aes", b"k", b"m")
        with pytest.raises(ValueError):
            provider.hash_function("md5-but-wrong")
        with pytest.raises(ValueError):
            provider.keyed_mac("cmac-aes")
        with pytest.raises(ValueError):
            provider.keyed_mac("hmac-blake2s")


# ----------------------------------------------------------------------
# End-to-end: a full measurement is identical under either backend
# ----------------------------------------------------------------------
def test_measurement_identical_across_backends(key, firmware):
    from repro.smartplus import build_smartplus_architecture

    outputs = {}
    for name in ("reference", "accelerated"):
        with use_backend(name):
            architecture = build_smartplus_architecture(
                key, mac_name="keyed-blake2s", application_size=512)
        assert architecture.crypto_backend is get_backend(name)
        architecture.load_application(firmware)
        output = architecture.perform_measurement()
        outputs[name] = (output.digest, output.tag)
    assert outputs["reference"] == outputs["accelerated"]
