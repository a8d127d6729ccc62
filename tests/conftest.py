"""Shared fixtures for the ERASMUS reproduction test suite."""

from __future__ import annotations

import pytest

from repro.arch.base import hash_for_mac
from repro.core import ErasmusConfig, ErasmusProver
from repro.fleet import FleetVerifier
from repro.hydra import build_hydra_architecture
from repro.sim import SimulationEngine
from repro.smartplus import build_smartplus_architecture

TEST_KEY = bytes(range(16))
FIRMWARE = b"test-firmware-image-v1" + bytes(200)
MALWARE = b"malicious-payload" + bytes(220)


@pytest.fixture
def key() -> bytes:
    """A 16-byte attestation key shared by prover and verifier."""
    return TEST_KEY


@pytest.fixture
def firmware() -> bytes:
    """A healthy application image."""
    return FIRMWARE


@pytest.fixture
def malware_image() -> bytes:
    """A malicious application image, distinct from the firmware."""
    return MALWARE


@pytest.fixture
def config() -> ErasmusConfig:
    """A small, fast ERASMUS configuration used across the suite."""
    return ErasmusConfig(measurement_interval=10.0,
                         collection_interval=60.0,
                         buffer_slots=8,
                         mac_name="keyed-blake2s")


@pytest.fixture
def smartplus_arch(key, firmware):
    """A SMART+ architecture with a tiny measured region (fast MACs)."""
    architecture = build_smartplus_architecture(
        key, mac_name="keyed-blake2s", application_size=512)
    architecture.load_application(firmware)
    return architecture


@pytest.fixture
def hydra_arch(key, firmware):
    """A HYDRA architecture with a small measured region (fast MACs)."""
    architecture = build_hydra_architecture(
        key, mac_name="keyed-blake2s", application_size=4096,
        measurement_buffer_size=4096)
    architecture.load_application(firmware)
    return architecture


@pytest.fixture
def erasmus_setup(key, config, smartplus_arch):
    """A ready-to-run (prover, verifier, engine, architecture) quadruple."""
    healthy = hash_for_mac(config.mac_name)(
        smartplus_arch.read_measured_memory())
    prover = ErasmusProver(smartplus_arch, config, device_id="dev-under-test")
    verifier = FleetVerifier(config)
    verifier.enroll("dev-under-test", key, [healthy])
    engine = SimulationEngine()
    return prover, verifier, engine, smartplus_arch
