"""HMAC (RFC 2104) built on the from-scratch hash implementations.

HMAC-SHA1 and HMAC-SHA256 are two of the three MAC constructions the
paper evaluates for ERASMUS measurements.  The streaming :class:`Hmac`
class is the ``reference`` provider's HMAC
(:class:`repro.crypto.backend.ReferenceBackend`); code that only needs
a tag calls the process's provider instead.  The implementation is
generic over any hash class exposing the
``update``/``digest``/``block_size`` interface of
:class:`repro.crypto.sha256.Sha256`.
"""

from __future__ import annotations

from typing import Type

from repro.crypto.sha1 import Sha1
from repro.crypto.sha256 import Sha256

_HASH_CLASSES: dict[str, type] = {
    "sha1": Sha1,
    "sha256": Sha256,
}


class Hmac:
    """Streaming HMAC object.

    Parameters
    ----------
    key:
        The MAC key (any length; longer than one block is hashed first,
        as RFC 2104 prescribes).
    data:
        Optional initial message bytes.
    hash_name:
        Either ``"sha1"`` or ``"sha256"``, or a hash class with the
        standard streaming interface.
    """

    def __init__(self, key: bytes, data: bytes = b"",
                 hash_name: str | Type = "sha256") -> None:
        if isinstance(hash_name, str):
            try:
                hash_cls = _HASH_CLASSES[hash_name.lower()]
            except KeyError as exc:
                raise ValueError(f"unknown HMAC hash: {hash_name!r}") from exc
        else:
            hash_cls = hash_name
        self._hash_cls = hash_cls
        self.block_size = hash_cls.block_size
        self.digest_size = hash_cls.digest_size
        self.name = f"hmac-{hash_cls.name}"

        key = bytes(key)
        if len(key) > self.block_size:
            key = hash_cls(key).digest()
        key = key + b"\x00" * (self.block_size - len(key))

        self._outer_key = bytes(b ^ 0x5C for b in key)
        self._inner = hash_cls(bytes(b ^ 0x36 for b in key))
        if data:
            self._inner.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the MAC state."""
        self._inner.update(data)

    def copy(self) -> "Hmac":
        """Return an independent copy of the current MAC state."""
        clone = object.__new__(Hmac)
        clone._hash_cls = self._hash_cls
        clone.block_size = self.block_size
        clone.digest_size = self.digest_size
        clone.name = self.name
        clone._outer_key = self._outer_key
        clone._inner = self._inner.copy()
        return clone

    def digest(self) -> bytes:
        """Return the MAC of all data absorbed so far."""
        outer = self._hash_cls(self._outer_key)
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        """Return the MAC as a lowercase hex string."""
        return self.digest().hex()

    @property
    def compressions(self) -> int:
        """Compression-function invocations so far (inner pass only).

        The two outer-pass compressions happen at finalization time and
        are not counted.
        """
        return self._inner.compressions

