"""Tests for the HMAC-DRBG CSPRNG used by irregular scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.csprng import HmacDrbg


def test_deterministic_for_same_seed():
    first = HmacDrbg(b"seed material")
    second = HmacDrbg(b"seed material")
    assert first.generate(64) == second.generate(64)


def test_different_seeds_differ():
    assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)


def test_personalization_changes_output():
    plain = HmacDrbg(b"seed")
    personalized = HmacDrbg(b"seed", personalization=b"device-7")
    assert plain.generate(32) != personalized.generate(32)


def test_successive_outputs_differ():
    drbg = HmacDrbg(b"seed")
    assert drbg.generate(32) != drbg.generate(32)


def test_generate_length():
    drbg = HmacDrbg(b"seed")
    for length in (0, 1, 31, 32, 33, 100):
        assert len(drbg.generate(length)) == length


def test_generate_negative_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").generate(-1)


def test_empty_seed_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"")


def test_random_uint_bits():
    drbg = HmacDrbg(b"seed")
    value = drbg.random_uint(16)
    assert 0 <= value < 2 ** 16
    with pytest.raises(ValueError):
        drbg.random_uint(12)


def test_uniform_bounds_and_mean():
    drbg = HmacDrbg(b"seed")
    samples = [drbg.uniform(30.0, 90.0) for _ in range(400)]
    assert all(30.0 <= sample < 90.0 for sample in samples)
    mean = sum(samples) / len(samples)
    assert 55.0 < mean < 65.0


def test_uniform_invalid_bounds():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").uniform(10.0, 5.0)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1,
                                                       max_value=200))
def test_reproducible_streams(seed, length):
    assert HmacDrbg(seed).generate(length) == HmacDrbg(seed).generate(length)


def test_uniform_draws_are_53_bit_fractions():
    # Every draw must sit exactly on the 53-bit grid the docstring
    # promises: fraction * 2**53 is an integer below 2**53.
    drbg = HmacDrbg(b"seed")
    for _ in range(100):
        fraction = drbg.uniform(0.0, 1.0)
        scaled = fraction * 2.0 ** 53
        assert scaled == int(scaled)
        assert 0.0 <= fraction < 1.0


def test_uniform_schedule_stream_regression():
    """Pin the exact schedule stream prover and verifier regenerate.

    These constants are the uniform draws of the DRBG as seeded by
    ``IrregularScheduler`` for key 0x42*16 / nonce ``dev-7`` after the
    53-bit-fraction fix.  If they move, deployed verifiers would start
    expecting different measurement times — any change here is a
    protocol break, not a refactor.
    """
    drbg = HmacDrbg(b"\x42" * 16,
                    personalization=b"erasmus-schedule" + b"dev-7")
    expected = [
        50.44615033735346,
        59.034824202635804,
        74.22835803468126,
        76.21275627570297,
        81.91784933555495,
        31.5480485251797,
    ]
    assert [drbg.uniform(30.0, 90.0) for _ in range(6)] == expected


def test_generate_regression():
    drbg = HmacDrbg(b"regression-seed")
    assert drbg.generate(16).hex() == "b7d54a52e0f28290111145f560b5c7da"
    assert drbg.uniform(0.0, 1.0) == 0.4251644663597115


def test_generate_batch_matches_sequential_generates():
    batched = HmacDrbg(b"seed").generate_batch(24, 7)
    sequential_drbg = HmacDrbg(b"seed")
    sequential = [sequential_drbg.generate(24) for _ in range(7)]
    assert batched == sequential


def test_generate_batch_advances_state_like_sequential():
    batched = HmacDrbg(b"seed")
    batched.generate_batch(16, 5)
    sequential = HmacDrbg(b"seed")
    for _ in range(5):
        sequential.generate(16)
    assert batched.generate(16) == sequential.generate(16)
    assert batched.reseed_counter == sequential.reseed_counter


def test_generate_batch_validates_arguments():
    drbg = HmacDrbg(b"seed")
    assert drbg.generate_batch(16, 0) == []
    with pytest.raises(ValueError):
        drbg.generate_batch(-1, 3)
    with pytest.raises(ValueError):
        drbg.generate_batch(16, -1)


def test_uniform_batch_matches_sequential_uniforms():
    batched = HmacDrbg(b"seed").uniform_batch(30.0, 90.0, 50)
    sequential_drbg = HmacDrbg(b"seed")
    sequential = [sequential_drbg.uniform(30.0, 90.0) for _ in range(50)]
    assert batched == sequential
    assert all(30.0 <= value < 90.0 for value in batched)


def test_uniform_batch_invalid_bounds():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").uniform_batch(10.0, 5.0, 3)
