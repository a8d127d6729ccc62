"""ROM image construction for the SMART+ model.

SMART+ places the attestation executable and the key ``K`` in ROM.  The
paper's Table 1 reports the executable size for each MAC choice; we use
the :class:`repro.hw.codesize.CodeSizeModel` to size the code region and
fill it with deterministic pseudo-content so that the ROM region has a
stable, verifiable digest (used by tests and by the secure-boot model in
HYDRA's counterpart).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.sha256 import sha256_digest
from repro.hw.codesize import CodeSizeModel


@dataclass(frozen=True)
class RomImage:
    """An immutable ROM image: attestation code bytes plus the key ``K``."""

    code: bytes
    key: bytes
    mac_name: str
    variant: str


@lru_cache(maxsize=None)
def _rom_code(seed: str, size_bytes: int) -> bytes:
    """The synthetic code bytes for one configuration, built once.

    Every device of one variant and MAC shares this one ``bytes``
    object as its ROM code region.
    """
    pattern = sha256_digest(seed.encode())
    repetitions = size_bytes // len(pattern) + 1
    return (pattern * repetitions)[:size_bytes]


def build_rom_image(key: bytes, mac_name: str = "keyed-blake2s",
                    variant: str = "erasmus",
                    code_size_model: CodeSizeModel | None = None) -> RomImage:
    """Build a deterministic ROM image for the given MAC and variant.

    The code bytes are synthetic (a repeating pattern derived from the
    configuration) but their *size* follows the paper's Table 1 via the
    code-size model, so ROM-capacity reasoning stays faithful.
    """
    if not key:
        raise ValueError("the attestation key K must be non-empty")
    model = code_size_model if code_size_model is not None else CodeSizeModel()
    size_bytes = model.report("smart+", variant, mac_name).total_bytes
    code = _rom_code(f"smart+/{variant}/{mac_name}", size_bytes)
    return RomImage(code=code, key=bytes(key), mac_name=mac_name.lower(),
                    variant=variant.lower())
