"""MAC algorithm registry.

The paper evaluates three MAC constructions (Table 1): HMAC-SHA1,
HMAC-SHA256 and keyed BLAKE2s.  The registry gives the rest of the
library a single place to look up a MAC by name, together with the
metadata the hardware cost models need (block size, digest size,
per-block compression cost class and indicative ROM footprint).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.crypto.backend import BackendSpec, resolve_backend
from repro.crypto.blake2s import Blake2s
from repro.crypto.hmac import Hmac


class MacAlgorithm:
    """A concrete MAC algorithm: ``mac(key, data) -> tag``.

    Tag computation dispatches through the pluggable backend registry
    when the selected backend knows the construction natively, and
    falls back to the registered ``mac_fn`` (the reference
    implementation) otherwise.  Instances also report the number of
    compression-function invocations a given message length requires,
    which the device cost models translate into cycles.
    """

    def __init__(self, name: str, block_size: int, digest_size: int,
                 mac_fn: Callable[[bytes, bytes], bytes],
                 extra_blocks: int, deprecated: bool = False) -> None:
        self.name = name
        self.block_size = block_size
        self.digest_size = digest_size
        self._mac_fn = mac_fn
        self.extra_blocks = extra_blocks
        self.deprecated = deprecated

    def mac(self, key: bytes, data: bytes,
            backend: BackendSpec = None) -> bytes:
        """Compute the MAC tag of ``data`` under ``key``."""
        provider = resolve_backend(backend)
        if provider.supports_mac(self.name):
            return provider.mac(self.name, key, data)
        return self._mac_fn(key, data)

    def verify(self, key: bytes, data: bytes, tag: bytes,
               backend: BackendSpec = None) -> bool:
        """Recompute and compare a tag in constant time."""
        from repro.crypto.constant_time import constant_time_compare
        return constant_time_compare(self.mac(key, data, backend=backend),
                                     tag)

    def compression_count(self, message_length: int) -> int:
        """Number of compression-function calls for a message of that size.

        Includes key-schedule and finalization blocks (``extra_blocks``),
        so multiplying by a per-compression cycle cost gives the total
        cryptographic work of one measurement.
        """
        if message_length < 0:
            raise ValueError("message length must be non-negative")
        blocks = (message_length + self.block_size - 1) // self.block_size
        return max(1, blocks) + self.extra_blocks

    def __repr__(self) -> str:
        return f"MacAlgorithm(name={self.name!r})"


_REGISTRY: Dict[str, MacAlgorithm] = {}


def register_mac(algorithm: MacAlgorithm) -> None:
    """Register a MAC algorithm under its (lower-cased) name."""
    _REGISTRY[algorithm.name.lower()] = algorithm


def get_mac(name: str) -> MacAlgorithm:
    """Look up a MAC algorithm by name (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown MAC {name!r}; known: {known}") from exc


def _hmac_sha1(key: bytes, data: bytes) -> bytes:
    return Hmac(key, data, hash_name="sha1").digest()


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    return Hmac(key, data, hash_name="sha256").digest()


def _keyed_blake2s(key: bytes, data: bytes) -> bytes:
    return Blake2s(data, key=key).digest()


# HMAC processes one extra key block on the inner pass and two blocks on
# the outer pass (key block + digest block); keyed BLAKE2s only prepends
# one key block.
register_mac(MacAlgorithm("hmac-sha1", 64, 20, _hmac_sha1,
                          extra_blocks=3, deprecated=True))
register_mac(MacAlgorithm("hmac-sha256", 64, 32, _hmac_sha256,
                          extra_blocks=3))
register_mac(MacAlgorithm("keyed-blake2s", 64, 32, _keyed_blake2s,
                          extra_blocks=1))
