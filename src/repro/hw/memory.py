"""Memory regions and hardware-enforced access control.

SMART+ and HYDRA both hinge on memory access rules:

* the attestation key ``K`` is readable *only* by the attestation code
  (hard-wired MCU rules in SMART+, seL4 capabilities in HYDRA);
* the attestation code itself is immutable (ROM in SMART+, secure-boot
  verified in HYDRA);
* the measurement history lives in ordinary *insecure* memory — malware
  may read, modify, reorder or delete it (Section 3.2), and the design
  must remain safe regardless.

This module models those rules.  Every read/write happens under an
:class:`AccessContext` (who is executing); region policies decide
whether the access is allowed.  Violations raise :class:`AccessViolation`
— in real hardware this would be a bus fault / MCU reset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union


class RegionKind(enum.Enum):
    """Physical flavour of a memory region."""

    ROM = "rom"
    RAM = "ram"
    FLASH = "flash"
    PERIPHERAL = "peripheral"


class AccessContext(enum.Enum):
    """Who is performing a memory access.

    ``ATTESTATION`` models execution from within the protected
    measurement routine (ROM code in SMART+, the PrAtt process in
    HYDRA).  ``NORMAL`` is the untrusted application world — including
    any malware that may have compromised it.  ``DMA`` models peripheral
    masters, which SMART forbids from touching the key region.
    """

    ATTESTATION = "attestation"
    NORMAL = "normal"
    DMA = "dma"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==``.  It is computed in C, where Enum's
    # ``hash(self._name_)`` is a Python call on every policy check.
    # Policy sets are only ever tested for membership, never iterated
    # into an output, so their (hash-dependent) order is never seen.
    __hash__ = object.__hash__


class AccessViolation(Exception):
    """A memory access violated the hardware access-control rules."""


@dataclass
class AccessPolicy:
    """Per-region access rules, expressed per :class:`AccessContext`.

    ``readable`` / ``writable`` list the contexts allowed to perform the
    respective access.  ``executable`` marks regions that may hold code.
    """

    readable: frozenset[AccessContext] = frozenset(AccessContext)
    writable: frozenset[AccessContext] = frozenset(AccessContext)
    executable: bool = False

    @classmethod
    def open(cls) -> "AccessPolicy":
        """Fully open region (ordinary RAM/flash)."""
        return cls(frozenset(AccessContext), frozenset(AccessContext))

    @classmethod
    def rom_code(cls) -> "AccessPolicy":
        """Read/execute for everyone, writable by nobody (true ROM)."""
        return cls(frozenset(AccessContext), frozenset(), executable=True)

    @classmethod
    def secret_key(cls) -> "AccessPolicy":
        """Readable only from the attestation context, never writable."""
        return cls(frozenset({AccessContext.ATTESTATION}), frozenset())

    @classmethod
    def attestation_private(cls) -> "AccessPolicy":
        """Read/write only from the attestation context (K-related scratch)."""
        only = frozenset({AccessContext.ATTESTATION})
        return cls(only, only)


@dataclass
class MemoryRegion:
    """A contiguous, named region of device memory.

    ``data`` is a ``bytearray`` unless no context may write the region:
    then it may be an immutable ``bytes`` image shared between devices
    (SMART+ ROM), since the policy check rejects every write first.
    """

    name: str
    base: int
    size: int
    kind: RegionKind
    policy: AccessPolicy = field(default_factory=AccessPolicy.open)
    data: Union[bytes, bytearray] = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ValueError(f"region {self.name!r} must have non-negative base")
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise ValueError(
                f"region {self.name!r}: initial data length {len(self.data)} "
                f"does not match size {self.size}")

    @property
    def end(self) -> int:
        """First address past the region."""
        return self.base + self.size

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True when the two regions share any address."""
        return self.base < other.end and other.base < self.end


class DeviceMemory:
    """A full device memory map with access-controlled reads and writes.

    The map is a collection of non-overlapping, named
    :class:`MemoryRegion` objects.  Reads and writes name their region
    and are checked against its policy under the caller's
    :class:`AccessContext`.
    """

    def __init__(self, regions: Optional[Iterable[MemoryRegion]] = None) -> None:
        self._regions: Dict[str, MemoryRegion] = {}
        self.violations: list[tuple[str, AccessContext, str]] = []
        for region in regions or ():
            self.add_region(region)

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        """Add a region; rejects duplicate names and overlapping ranges."""
        if region.name in self._regions:
            raise ValueError(f"duplicate region name {region.name!r}")
        for existing in self._regions.values():
            if region.overlaps(existing):
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self._regions[region.name] = region
        return region

    def region(self, name: str) -> MemoryRegion:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError as exc:
            raise KeyError(f"no region named {name!r}") from exc

    def regions(self) -> list[MemoryRegion]:
        """All regions, sorted by base address."""
        return sorted(self._regions.values(), key=lambda region: region.base)

    def _violation(self, region: MemoryRegion, context: AccessContext,
                   access: str) -> AccessViolation:
        """Record a denied access and return the error to raise."""
        self.violations.append((region.name, context, access))
        return AccessViolation(
            f"{context.value} context may not {access} "
            f"region {region.name!r}")

    def read_region(self, name: str,
                    context: AccessContext = AccessContext.NORMAL) -> bytes:
        """Read an entire region by name."""
        region = self.region(name)
        if context not in region.policy.readable:
            raise self._violation(region, context, "read")
        return bytes(region.data)

    def write_region(self, name: str, payload: bytes,
                     context: AccessContext = AccessContext.NORMAL,
                     offset: int = 0) -> None:
        """Write into a region by name at the given offset."""
        region = self.region(name)
        if offset < 0 or offset + len(payload) > region.size:
            raise ValueError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"region {name!r} of size {region.size}")
        if context not in region.policy.writable:
            raise self._violation(region, context, "write")
        region.data[offset:offset + len(payload)] = payload
