"""SHA-1 implemented from scratch (RFC 3174 / FIPS 180-1).

The paper includes HMAC-SHA1 in Table 1 "for comparison purposes only"
and explicitly excludes it from the actual deployment because of the
SHAttered collision attack.  We implement it anyway so that the Table 1
reproduction covers all three rows, and mark it as deprecated in the
MAC registry (:mod:`repro.crypto.mac`).
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _rotl(value: int, amount: int) -> int:
    """Rotate a 32-bit value left by ``amount`` bits."""
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


class Sha1:
    """Streaming SHA-1 hash object with a compression-work counter."""

    digest_size = 20
    block_size = 64
    name = "sha1"

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_INITIAL_STATE)
        self._buffer = b""
        self._length = 0
        self.compressions = 0
        if data:
            self.update(data)

    def copy(self) -> "Sha1":
        """Return an independent copy of the current hash state."""
        clone = Sha1()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        clone._length = self._length
        clone.compressions = self.compressions
        return clone

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA-1 input must be bytes-like")
        data = bytes(data)
        self._length += len(data)
        buffer = self._buffer + data
        block_count = len(buffer) // 64
        for i in range(block_count):
            self._compress(buffer[i * 64:(i + 1) * 64])
        self._buffer = buffer[block_count * 64:]

    def digest(self) -> bytes:
        """Return the 20-byte digest of all data absorbed so far."""
        clone = self.copy()
        bit_length = clone._length * 8
        padding = b"\x80" + b"\x00" * ((55 - clone._length) % 64)
        clone.update(padding + struct.pack(">Q", bit_length))
        return struct.pack(">5I", *clone._state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def _compress(self, block: bytes) -> None:
        self.compressions += 1
        w = list(struct.unpack(">16I", block))
        for i in range(16, 80):
            w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))

        a, b, c, d, e = self._state
        for i in range(80):
            if i < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif i < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif i < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[i]) & _MASK32
            e = d
            d = c
            c = _rotl(b, 30)
            b = a
            a = temp

        self._state = [
            (self._state[0] + a) & _MASK32,
            (self._state[1] + b) & _MASK32,
            (self._state[2] + c) & _MASK32,
            (self._state[3] + d) & _MASK32,
            (self._state[4] + e) & _MASK32,
        ]
