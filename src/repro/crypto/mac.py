"""Cost-model metadata for the paper's three MAC constructions.

The paper evaluates three MAC constructions (Table 1): HMAC-SHA1,
HMAC-SHA256 and keyed BLAKE2s.  This registry names them and carries
the metadata the hardware cost models need (block size, digest size and
the per-measurement compression count).  Tags themselves are computed
by the crypto provider (:meth:`repro.crypto.backend.CryptoBackend.mac`).
"""

from __future__ import annotations

from typing import Dict


class MacAlgorithm:
    """Cost-model facts about one MAC construction.

    Instances report the number of compression-function invocations a
    given message length requires, which the device cost models
    translate into cycles.
    """

    def __init__(self, name: str, block_size: int, digest_size: int,
                 extra_blocks: int, deprecated: bool = False) -> None:
        self.name = name
        self.block_size = block_size
        self.digest_size = digest_size
        self.extra_blocks = extra_blocks
        self.deprecated = deprecated

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


# HMAC processes one extra key block on the inner pass and two blocks on
# the outer pass (key block + digest block); keyed BLAKE2s only prepends
# one key block.
_REGISTRY: Dict[str, MacAlgorithm] = {
    algorithm.name: algorithm for algorithm in (
        MacAlgorithm("hmac-sha1", 64, 20, extra_blocks=3, deprecated=True),
        MacAlgorithm("hmac-sha256", 64, 32, extra_blocks=3),
        MacAlgorithm("keyed-blake2s", 64, 32, extra_blocks=1),
    )}


def get_mac(name: str) -> MacAlgorithm:
    """Look up a MAC algorithm by name (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown MAC {name!r}; known: {known}") from exc
