"""HMAC-DRBG (NIST SP 800-90A) — the CSPRNG for irregular scheduling.

Paper Section 3.5: "One way to implement irregular intervals is to use
a Cryptographically Secure Pseudo Random Number Generator (CSPRNG)
initialized (seeded) with the secret key K."  The output is truncated /
mapped into ``[lower, upper)`` seconds to produce the next measurement
interval.

We implement the deterministic HMAC-DRBG construction so that prover
and analysis code can regenerate identical schedules from the same seed
(the verifier, knowing K, can reconstruct the expected measurement
times, while schedule-aware malware without K cannot).

The underlying HMAC is computed by the process's crypto provider
(:mod:`repro.crypto.backend`), resolved once when the generator is
built; the output stream is bit-for-bit identical under every
provider, so schedules regenerate identically no matter which one
computed them.  Hot callers (scheduler sweeps,
verifier schedule regeneration) should prefer the batched entry points
:meth:`HmacDrbg.generate_batch` and :meth:`HmacDrbg.uniform_batch`,
which amortize per-call overhead while producing exactly the stream
the equivalent sequence of single calls would.
"""

from __future__ import annotations

from repro.crypto.backend import get_backend

#: 2**-53 — one ulp of the 53-bit fraction used by :meth:`HmacDrbg.uniform`.
_FRACTION_ULP = 2.0 ** -53


class HmacDrbg:
    """Deterministic random bit generator per NIST SP 800-90A (HMAC-DRBG).

    Parameters
    ----------
    seed:
        Entropy input; in ERASMUS this is derived from the attestation
        key ``K`` (optionally mixed with a per-device nonce).
    personalization:
        Optional personalization string mixed into the initial state.
    hash_name:
        Underlying hash for the internal HMAC ("sha256" by default).
    """

    def __init__(self, seed: bytes, personalization: bytes = b"",
                 hash_name: str = "sha256") -> None:
        if not seed:
            raise ValueError("HMAC-DRBG requires a non-empty seed")
        backend = get_backend()
        self._hmac = backend.keyed_mac("hmac-" + hash_name)
        digest_size = backend.digest_size(hash_name)
        self._key = b"\x00" * digest_size
        self._value = b"\x01" * digest_size
        self.reseed_counter = 1
        self._update(bytes(seed) + bytes(personalization))

    def _update(self, provided_data: bytes = b"") -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + provided_data)
        self._value = self._hmac(self._key, self._value)
        if provided_data:
            self._key = self._hmac(
                self._key, self._value + b"\x01" + provided_data)
            self._value = self._hmac(self._key, self._value)

    def generate(self, num_bytes: int) -> bytes:
        """Return ``num_bytes`` pseudo-random bytes."""
        if num_bytes < 0:
            raise ValueError("cannot generate a negative number of bytes")
        output = b""
        while len(output) < num_bytes:
            self._value = self._hmac(self._key, self._value)
            output += self._value
        self._update()
        self.reseed_counter += 1
        return output[:num_bytes]

    def generate_batch(self, num_bytes: int, count: int) -> list[bytes]:
        """Return ``count`` successive :meth:`generate` outputs.

        Produces exactly the stream that ``count`` individual
        ``generate(num_bytes)`` calls would, but hoists the per-call
        dispatch out of the loop so large schedule regenerations are
        cheap.
        """
        if num_bytes < 0:
            raise ValueError("cannot generate a negative number of bytes")
        if count < 0:
            raise ValueError("cannot generate a negative number of batches")
        hmac_fn = self._hmac
        key = self._key
        value = self._value
        outputs: list[bytes] = []
        for _ in range(count):
            output = b""
            while len(output) < num_bytes:
                value = hmac_fn(key, value)
                output += value
            outputs.append(output[:num_bytes])
            # Inline _update() with no provided data.
            key = hmac_fn(key, value + b"\x00")
            value = hmac_fn(key, value)
        self._key = key
        self._value = value
        self.reseed_counter += count
        return outputs

    def random_uint(self, bits: int = 64) -> int:
        """Return a uniformly random unsigned integer with ``bits`` bits."""
        if bits <= 0 or bits % 8 != 0:
            raise ValueError("bits must be a positive multiple of 8")
        return int.from_bytes(self.generate(bits // 8), "big")

    def uniform(self, lower: float, upper: float) -> float:
        """Return a float uniformly distributed in ``[lower, upper)``.

        This is the ``map`` function from paper Section 3.5:
        ``map : x -> x mod (U - L) + L`` applied to the CSPRNG output,
        except that we map through a 53-bit fraction to avoid the
        modulo bias of the paper's illustrative formula.  The top 53 of
        64 generated bits become the fraction, so every draw is an
        exactly representable multiple of 2**-53 and the mapping is
        exactly uniform over the representable grid.
        """
        if upper < lower:
            raise ValueError("upper bound must be >= lower bound")
        fraction = (self.random_uint(64) >> 11) * _FRACTION_ULP
        return lower + fraction * (upper - lower)

    def uniform_batch(self, lower: float, upper: float,
                      count: int) -> list[float]:
        """Return ``count`` successive :meth:`uniform` draws.

        Stream-identical to ``count`` individual ``uniform`` calls, with
        the batched generator underneath.
        """
        if upper < lower:
            raise ValueError("upper bound must be >= lower bound")
        width = upper - lower
        return [
            lower + ((int.from_bytes(raw, "big") >> 11) * _FRACTION_ULP)
            * width
            for raw in self.generate_batch(8, count)
        ]
