"""HYDRA architecture simulation (Figure 7(b)).

Compared to SMART+, the key and the attestation code live in *writable*
memory (flash/RAM); their protection comes from seL4 capabilities plus
secure boot rather than from ROM.  The RROC is the software clock built
from the i.MX6 General Purpose Timer, and measurements are scheduled by
the EPIT periodic timer.
"""

from __future__ import annotations

import functools
from typing import Dict

from repro.arch.base import ArchitectureError, SecurityArchitecture
from repro.crypto.backend import get_backend
from repro.hw.clock import SoftwareClock, WrappingCounter
from repro.hw.codesize import CodeSizeModel
from repro.hw.devices import ApplicationCPUModel
from repro.hw.memory import (
    AccessContext,
    AccessPolicy,
    DeviceMemory,
    MemoryRegion,
    RegionKind,
)
from repro.hydra.pratt import KEY_OBJECT, PrAttProcess
from repro.hydra.secure_boot import SecureBoot
from repro.hydra.sel4 import Microkernel, Right

#: Region names used by the HYDRA memory map.
KERNEL_IMAGE_REGION = "sel4_kernel"
PRATT_IMAGE_REGION = "pratt_image"
KEY_REGION = "key_region"
APPLICATION_REGION = "application"
MEASUREMENT_BUFFER_REGION = "measurement_buffer"

#: i.MX6 GPT: a 32-bit counter clocked at 66 MHz (wraps every ~65 s).
_GPT_FREQUENCY_HZ = 66_000_000.0

#: The synthetic seL4 kernel image: its pattern label and size.
_KERNEL_LABEL = b"sel4-kernel"
_KERNEL_IMAGE_SIZE = 160 * 1024


def _synthetic_image(label: bytes, size: int) -> bytes:
    from repro.crypto.sha256 import sha256_digest
    pattern = sha256_digest(label)
    return (pattern * (size // len(pattern) + 1))[:size]


@functools.lru_cache(maxsize=None)
def _provisioned_digests(pratt_label: bytes, pratt_size: int,
                         provider: str) -> Dict[str, bytes]:
    """The factory-provisioned digests of the kernel and PrAtt images.

    Every device built with one PrAtt image on one crypto provider (the
    process default, named by ``provider``) is provisioned with the same
    known-good digests, so factory provisioning hashes the images once;
    each device's :meth:`SecureBoot.boot` still hashes its own copies.
    """
    return SecureBoot.provision({
        KERNEL_IMAGE_REGION: _synthetic_image(_KERNEL_LABEL,
                                              _KERNEL_IMAGE_SIZE),
        PRATT_IMAGE_REGION: _synthetic_image(pratt_label, pratt_size),
    }).expected_digests


class HydraArchitecture(SecurityArchitecture):
    """HYDRA model implementing :class:`repro.arch.SecurityArchitecture`.

    Parameters
    ----------
    key:
        The attestation key ``K`` (stored in a capability-protected
        writable region, unlike SMART+'s ROM).
    mac_name:
        MAC algorithm used for measurements.
    application_size:
        Size of the measured application region (Figure 8 sweeps this
        from 0 to 10 MB).
    cost_model:
        i.MX6-class cost model (defaults to the calibrated one).
    """

    _NESTED_ENTRY_ERROR = \
        "PrAtt is single-threaded; nested measurement is impossible"

    def __init__(self, key: bytes, mac_name: str = "keyed-blake2s",
                 application_size: int = 10 * 1024 * 1024,
                 measurement_buffer_size: int = 64 * 1024,
                 cost_model: ApplicationCPUModel | None = None,
                 code_size_model: CodeSizeModel | None = None) -> None:
        if not key:
            raise ValueError("the attestation key K must be non-empty")
        if application_size <= 0:
            raise ValueError("application size must be positive")
        size_model = code_size_model if code_size_model is not None \
            else CodeSizeModel()
        kernel_image = _synthetic_image(_KERNEL_LABEL, _KERNEL_IMAGE_SIZE)
        pratt_size = size_model.report("hydra", "erasmus", mac_name).total_bytes
        pratt_label = f"pratt/{mac_name}".encode()
        pratt_image = _synthetic_image(pratt_label, pratt_size)

        memory = self._build_memory_map(
            kernel_image, pratt_image, key, application_size,
            measurement_buffer_size)
        super().__init__(
            memory=memory,
            cost_model=cost_model if cost_model is not None
            else ApplicationCPUModel(),
            mac_name=mac_name,
            measured_region=APPLICATION_REGION,
        )

        # Secure boot: verify the kernel and PrAtt images, then bring up
        # the microkernel with PrAtt as the initial, highest-priority
        # process holding exclusive key capabilities.
        self.secure_boot = SecureBoot(expected_digests=dict(
            _provisioned_digests(pratt_label, pratt_size,
                                 get_backend().name)))
        self.secure_boot.boot({
            KERNEL_IMAGE_REGION: kernel_image,
            PRATT_IMAGE_REGION: pratt_image,
        })
        self.kernel = Microkernel()
        self.pratt = PrAttProcess.boot(self.kernel)
        self.clock = SoftwareClock(
            WrappingCounter(frequency_hz=_GPT_FREQUENCY_HZ, width_bits=32))

    @staticmethod
    def _build_memory_map(kernel_image: bytes, pratt_image: bytes, key: bytes,
                          application_size: int,
                          measurement_buffer_size: int) -> DeviceMemory:
        memory = DeviceMemory()
        cursor = 0
        for name, data, policy in (
                (KERNEL_IMAGE_REGION, kernel_image,
                 AccessPolicy.attestation_private()),
                (PRATT_IMAGE_REGION, pratt_image,
                 AccessPolicy.attestation_private()),
                (KEY_REGION, key, AccessPolicy.attestation_private()),
        ):
            memory.add_region(MemoryRegion(
                name=name, base=cursor, size=len(data), kind=RegionKind.FLASH,
                policy=policy, data=bytearray(data)))
            cursor += len(data)
        memory.add_region(MemoryRegion(
            name=APPLICATION_REGION, base=cursor, size=application_size,
            kind=RegionKind.RAM, policy=AccessPolicy.open()))
        cursor += application_size
        memory.add_region(MemoryRegion(
            name=MEASUREMENT_BUFFER_REGION, base=cursor,
            size=measurement_buffer_size, kind=RegionKind.RAM,
            policy=AccessPolicy.open()))
        return memory

    # ------------------------------------------------------------------
    # SecurityArchitecture interface
    # ------------------------------------------------------------------
    def read_clock(self) -> float:
        """Read the software RROC (GPT counter + PrAtt-owned high bits)."""
        return self.clock.read()

    def advance_clock(self, time_seconds: float) -> None:
        """Advance the GPT; PrAtt services wrap-around interrupts."""
        self.pratt.update_rroc_high_bits()
        self.clock.advance_to(time_seconds, trusted=True)

    def _read_key(self) -> bytes:
        if not self._in_protected_execution:
            raise ArchitectureError(
                "K may only be read by the PrAtt process")
        self.kernel.require_access(self.pratt.name, KEY_OBJECT, Right.READ)
        return self.memory.read_region(KEY_REGION, AccessContext.ATTESTATION)

    def _check_entry(self) -> None:
        """PrAtt must still run at the top priority with the key to itself."""
        if not self.pratt.is_highest_priority():
            raise ArchitectureError(
                "PrAtt lost its scheduling priority; atomicity is broken")
        if not self.pratt.has_exclusive_key_access():
            raise ArchitectureError(
                "key capability leaked; exclusive access is broken")

    # ------------------------------------------------------------------
    # HYDRA-specific behaviour
    # ------------------------------------------------------------------
    def load_application(self, image: bytes) -> None:
        """Load (or let malware overwrite) the application image."""
        region = self.memory.region(APPLICATION_REGION)
        if len(image) > region.size:
            raise ValueError(
                f"application image of {len(image)} bytes exceeds the "
                f"{region.size}-byte application region")
        padded = image + bytes(region.size - len(image))
        self.memory.write_region(APPLICATION_REGION, padded,
                                 context=AccessContext.NORMAL)


def build_hydra_architecture(
        key: bytes, mac_name: str = "keyed-blake2s",
        application_size: int = 10 * 1024 * 1024,
        measurement_buffer_size: int = 64 * 1024,
        cost_model: ApplicationCPUModel | None = None) -> HydraArchitecture:
    """Convenience factory: build a HYDRA device ready for ERASMUS."""
    return HydraArchitecture(
        key=key, mac_name=mac_name, application_size=application_size,
        measurement_buffer_size=measurement_buffer_size,
        cost_model=cost_model)
