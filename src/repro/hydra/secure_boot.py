"""Hardware-enforced secure boot for the HYDRA model.

HYDRA relies on secure boot to guarantee the integrity of the seL4
kernel image and the PrAtt process image at system initialization time;
everything after that is enforced by seL4's (formally verified)
capability system.  The model keeps a table of expected image digests
and refuses to boot when any measured image deviates.  Digests are
SHA-256 on the process's crypto provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.backend import get_backend
from repro.crypto.constant_time import constant_time_compare


def _sha256(image: bytes) -> bytes:
    return get_backend().hash_function("sha256")(image)


class SecureBootError(Exception):
    """Raised when an image fails secure-boot verification."""


@dataclass
class SecureBoot:
    """Boot-time verifier for a set of named firmware images."""

    expected_digests: Dict[str, bytes] = field(default_factory=dict)
    booted: bool = False

    @classmethod
    def provision(cls, images: Dict[str, bytes]) -> "SecureBoot":
        """Record the digests of known-good images (factory provisioning)."""
        return cls(expected_digests={
            name: _sha256(image) for name, image in images.items()})

    def verify_image(self, name: str, image: bytes) -> bool:
        """Check one image against its provisioned digest.

        Constant-time: boot-time verification is exactly where a
        byte-by-byte early exit would leak how much of a forged image's
        digest matches.
        """
        expected = self.expected_digests.get(name)
        if expected is None:
            return False
        return constant_time_compare(_sha256(image), expected)

    def boot(self, images: Dict[str, bytes]) -> None:
        """Verify every provisioned image and mark the device booted.

        All provisioned images must be present and match; any mismatch
        or missing image aborts the boot.
        """
        for name in self.expected_digests:
            if name not in images:
                raise SecureBootError(f"image {name!r} missing at boot")
            if not self.verify_image(name, images[name]):
                raise SecureBootError(f"image {name!r} failed verification")
        self.booted = True
