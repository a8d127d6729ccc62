"""BLAKE2s implemented from scratch (RFC 7693).

Keyed BLAKE2s is the third MAC option evaluated in the paper (Table 1,
Figures 6 and 8).  It is the slowest-per-ROM-byte but fastest-per-cycle
option on the MSP430-class devices the paper targets.  This module
implements the sequential (non-parallel) BLAKE2s variant with optional
keying, as used for MACs.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

# Initialization vector (identical to the SHA-256 IV, RFC 7693 2.6).
_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

# Message schedule permutations for the 10 rounds (RFC 7693 2.7).
_SIGMA = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
    (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
    (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
    (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
    (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
    (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
    (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
    (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
    (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0),
)


def _rotr(value: int, amount: int) -> int:
    """Rotate a 32-bit value right by ``amount`` bits."""
    return ((value >> amount) | (value << (32 - amount))) & _MASK32


class Blake2s:
    """Streaming BLAKE2s hash object with optional keying.

    Parameters
    ----------
    data:
        Initial message bytes to absorb.
    key:
        Optional key (at most 32 bytes).  When present the hash acts as
        a MAC: the key is padded to a full 64-byte block and processed
        before the message, exactly as RFC 7693 prescribes.
    digest_size:
        Output length in bytes, between 1 and 32 (default 32).
    """

    block_size = 64
    name = "blake2s"

    def __init__(self, data: bytes = b"", key: bytes = b"",
                 digest_size: int = 32) -> None:
        if not 1 <= digest_size <= 32:
            raise ValueError("BLAKE2s digest size must be in [1, 32]")
        if len(key) > 32:
            raise ValueError("BLAKE2s key must be at most 32 bytes")
        self.digest_size = digest_size
        self._key_length = len(key)
        self._state = list(_IV)
        self._state[0] ^= 0x01010000 ^ (self._key_length << 8) ^ digest_size
        self._counter = 0
        self._buffer = b""
        self._finalized_digest: bytes | None = None
        self.compressions = 0
        if key:
            self.update(bytes(key) + b"\x00" * (64 - len(key)))
        if data:
            self.update(data)

    def copy(self) -> "Blake2s":
        """Return an independent copy of the current hash state."""
        clone = Blake2s(digest_size=self.digest_size)
        clone._key_length = self._key_length
        clone._state = list(self._state)
        clone._counter = self._counter
        clone._buffer = self._buffer
        clone._finalized_digest = self._finalized_digest
        clone.compressions = self.compressions
        return clone

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if self._finalized_digest is not None:
            raise ValueError("cannot update a finalized BLAKE2s object")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("BLAKE2s input must be bytes-like")
        self._buffer += bytes(data)
        # Keep at least one byte buffered so the final block (which needs
        # the "last block" flag) is never compressed prematurely.
        while len(self._buffer) > 64:
            block = self._buffer[:64]
            self._buffer = self._buffer[64:]
            self._counter += 64
            self._compress(block, last=False)

    def digest(self) -> bytes:
        """Return the digest of all data absorbed so far."""
        if self._finalized_digest is None:
            clone = self.copy()
            clone._counter += len(clone._buffer)
            block = clone._buffer + b"\x00" * (64 - len(clone._buffer))
            clone._compress(block, last=True)
            packed = struct.pack("<8I", *clone._state)
            self._finalized_digest = packed[: self.digest_size]
            self.compressions = clone.compressions
        return self._finalized_digest

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def _compress(self, block: bytes, last: bool) -> None:
        self.compressions += 1
        m = struct.unpack("<16I", block)
        v = list(self._state) + list(_IV)
        v[12] ^= self._counter & _MASK32
        v[13] ^= (self._counter >> 32) & _MASK32
        if last:
            v[14] ^= _MASK32

        def mix(a: int, b: int, c: int, d: int, x: int, y: int) -> None:
            v[a] = (v[a] + v[b] + x) & _MASK32
            v[d] = _rotr(v[d] ^ v[a], 16)
            v[c] = (v[c] + v[d]) & _MASK32
            v[b] = _rotr(v[b] ^ v[c], 12)
            v[a] = (v[a] + v[b] + y) & _MASK32
            v[d] = _rotr(v[d] ^ v[a], 8)
            v[c] = (v[c] + v[d]) & _MASK32
            v[b] = _rotr(v[b] ^ v[c], 7)

        for round_index in range(10):
            s = _SIGMA[round_index]
            mix(0, 4, 8, 12, m[s[0]], m[s[1]])
            mix(1, 5, 9, 13, m[s[2]], m[s[3]])
            mix(2, 6, 10, 14, m[s[4]], m[s[5]])
            mix(3, 7, 11, 15, m[s[6]], m[s[7]])
            mix(0, 5, 10, 15, m[s[8]], m[s[9]])
            mix(1, 6, 11, 12, m[s[10]], m[s[11]])
            mix(2, 7, 8, 13, m[s[12]], m[s[13]])
            mix(3, 4, 9, 14, m[s[14]], m[s[15]])

        for i in range(8):
            self._state[i] ^= v[i] ^ v[i + 8]


def keyed_blake2s(key: bytes, data: bytes, digest_size: int = 32) -> bytes:
    """One-shot keyed BLAKE2s MAC of ``data`` under ``key``."""
    return Blake2s(data, key=key, digest_size=digest_size).digest()
