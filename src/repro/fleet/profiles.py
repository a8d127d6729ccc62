"""Device profiles: one-call provisioning of attestation-ready devices.

A :class:`DeviceProfile` captures everything needed to stamp out one
class of prover — security architecture, measured-memory size, firmware
image, MAC choice and measurement schedule — so that a
fleet of thousands of homogeneous devices can be provisioned with a
single call instead of the historical build-architecture / load-image /
hash-memory / construct-prover / enroll dance.

Per-device keys are derived from a fleet master secret with the
deployment MAC (``K_i = MAC_master(label || device_id)``), mirroring
how real deployments diversify a factory secret per unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.arch.base import SecurityArchitecture
from repro.core.config import ErasmusConfig
from repro.core.prover import ErasmusProver
from repro.crypto.backend import get_backend
from repro.hydra import build_hydra_architecture
from repro.smartplus import build_smartplus_architecture

#: Architecture families a profile can provision.
SMARTPLUS = "smart+"
HYDRA = "hydra"

_KEY_DERIVATION_LABEL = b"erasmus-fleet-device-key/"


def derive_device_key(master_secret: bytes, device_id: str,
                      mac_name: str = "keyed-blake2s") -> bytes:
    """Derive one device's shared key ``K`` from the fleet master secret."""
    if not master_secret:
        raise ValueError("the fleet master secret must be non-empty")
    return get_backend().mac(
        mac_name, master_secret, _KEY_DERIVATION_LABEL + device_id.encode())


@dataclass(frozen=True)
class DeviceProfile:
    """Blueprint for provisioning one class of ERASMUS device.

    Attributes
    ----------
    architecture:
        ``"smart+"`` (low-end, ROM-anchored) or ``"hydra"`` (medium-end,
        seL4-anchored).
    firmware:
        Application image loaded into the measured region at
        provisioning time; its digest becomes the device's first
        known-good state.
    application_size:
        Size of the measured application region in bytes.
    measurement_buffer_size:
        Rolling-buffer region size; ``None`` picks the architecture's
        default.
    config:
        Deployment parameters (``T_M``, ``T_C``, ``n``, schedule, MAC).
        The factory classmethods build sensible ones.
    """

    architecture: str = SMARTPLUS
    firmware: bytes = b"reference-firmware-v1"
    application_size: int = 1024
    measurement_buffer_size: Optional[int] = None
    config: ErasmusConfig = field(default_factory=ErasmusConfig)

    def __post_init__(self) -> None:
        if self.architecture not in (SMARTPLUS, HYDRA):
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"expected {SMARTPLUS!r} or {HYDRA!r}")
        if len(self.firmware) > self.application_size:
            raise ValueError(
                f"firmware of {len(self.firmware)} bytes does not fit the "
                f"{self.application_size}-byte application region")

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def _build_config(config: Optional[ErasmusConfig],
                      overrides) -> ErasmusConfig:
        if config is not None and overrides:
            # Applying overrides on top of an explicit config would be
            # ambiguous; silently dropping either side is worse.
            raise ValueError(
                "pass either config= or keyword overrides, not both "
                f"(got overrides {sorted(overrides)})")
        if config is not None:
            return config
        return ErasmusConfig(**overrides)

    @classmethod
    def smartplus(cls, firmware: bytes = b"reference-firmware-v1",
                  application_size: int = 1024,
                  config: Optional[ErasmusConfig] = None,
                  **config_overrides) -> "DeviceProfile":
        """A low-end SMART+ profile (MSP430-class, small measured region)."""
        return cls(architecture=SMARTPLUS, firmware=firmware,
                   application_size=application_size,
                   config=cls._build_config(config, config_overrides))

    @classmethod
    def hydra(cls, firmware: bytes = b"reference-firmware-v1",
              application_size: int = 64 * 1024,
              config: Optional[ErasmusConfig] = None,
              **config_overrides) -> "DeviceProfile":
        """A medium-end HYDRA profile (i.MX6-class, larger measured region)."""
        return cls(architecture=HYDRA, firmware=firmware,
                   application_size=application_size,
                   measurement_buffer_size=16 * 1024,
                   config=cls._build_config(config, config_overrides))

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def build_architecture(self, key: bytes) -> SecurityArchitecture:
        """Build and image the security architecture for one device."""
        builder = build_smartplus_architecture \
            if self.architecture == SMARTPLUS else build_hydra_architecture
        kwargs = {}
        if self.measurement_buffer_size is not None:
            kwargs["measurement_buffer_size"] = self.measurement_buffer_size
        arch: SecurityArchitecture = builder(
            key, mac_name=self.config.mac_name,
            application_size=self.application_size, **kwargs)
        arch.load_application(self.firmware)
        return arch

    def provision(self, device_id: str, key: Optional[bytes] = None,
                  master_secret: Optional[bytes] = None,
                  critical_task_active: Optional[Callable[[float], bool]]
                  = None) -> "ProvisionedDevice":
        """Provision one ready-to-attest device.

        Exactly one of ``key`` (an explicit per-device key) or
        ``master_secret`` (per-device key derived from it) must be
        given.  Returns the prover, its architecture, the shared key and
        the healthy reference digest, bundled for enrollment.
        """
        if (key is None) == (master_secret is None):
            raise ValueError("pass exactly one of key= or master_secret=")
        if key is None:
            assert master_secret is not None
            key = derive_device_key(master_secret, device_id,
                                    self.config.mac_name)
        architecture = self.build_architecture(key)
        healthy_digest = architecture.hash_function(
            architecture.read_measured_memory())
        prover = ErasmusProver(architecture, self.config,
                               device_id=device_id, scheduling_key=key,
                               critical_task_active=critical_task_active)
        return ProvisionedDevice(device_id=device_id, key=key,
                                 profile=self, architecture=architecture,
                                 prover=prover,
                                 healthy_digest=healthy_digest)


@dataclass
class ProvisionedDevice:
    """One provisioned device: prover, architecture and enrollment facts."""

    device_id: str
    key: bytes
    profile: DeviceProfile
    architecture: SecurityArchitecture
    prover: ErasmusProver
    healthy_digest: bytes

    def load_application(self, image: bytes) -> None:
        """Replace the application image (firmware update or infection)."""
        self.architecture.load_application(image)
