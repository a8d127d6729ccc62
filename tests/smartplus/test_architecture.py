"""Tests for the SMART+ architecture model."""

import pytest

from repro.arch.base import ArchitectureError
from repro.fleet.profiles import DeviceProfile
from repro.hw.memory import AccessContext, AccessViolation
from repro.smartplus import build_rom_image, build_smartplus_architecture
from repro.smartplus.architecture import (
    APPLICATION_REGION,
    MEASUREMENT_BUFFER_REGION,
    ROM_CODE_REGION,
    ROM_KEY_REGION,
)


def test_memory_map_has_figure5_regions(smartplus_arch):
    names = {region.name for region in smartplus_arch.memory.regions()}
    assert {ROM_CODE_REGION, ROM_KEY_REGION, APPLICATION_REGION,
            MEASUREMENT_BUFFER_REGION} <= names


def test_rom_code_size_follows_table1(key):
    architecture = build_smartplus_architecture(
        key, mac_name="hmac-sha256", variant="erasmus")
    rom = architecture.memory.region(ROM_CODE_REGION)
    assert rom.size == int(round(4.9 * 1024))


def test_key_region_unreadable_from_normal_world(smartplus_arch):
    with pytest.raises(AccessViolation):
        smartplus_arch.memory.read_region(ROM_KEY_REGION, AccessContext.NORMAL)


def test_rom_code_immutable(smartplus_arch):
    """Neither ROM region (code or ``K``) takes a write from any context."""
    memory = smartplus_arch.memory
    for name in (ROM_CODE_REGION, ROM_KEY_REGION):
        before = memory.read_region(name, AccessContext.ATTESTATION)
        for context in AccessContext:
            with pytest.raises(AccessViolation):
                memory.write_region(name, b"patched", context=context)
        assert memory.read_region(name, AccessContext.ATTESTATION) == before


def test_devices_of_one_profile_share_one_rom_code_image():
    profile = DeviceProfile.smartplus()
    first = profile.provision("rom-a", master_secret=b"master")
    second = profile.provision("rom-b", master_secret=b"master")
    first_code = first.architecture.memory.region(ROM_CODE_REGION).data
    second_code = second.architecture.memory.region(ROM_CODE_REGION).data
    assert first_code is second_code
    assert isinstance(first_code, bytes)


def test_measurement_buffer_is_open_to_normal_world(smartplus_arch):
    smartplus_arch.memory.write_region(MEASUREMENT_BUFFER_REGION, b"anything",
                                       context=AccessContext.NORMAL)
    content = smartplus_arch.memory.read_region(MEASUREMENT_BUFFER_REGION,
                                                AccessContext.NORMAL)
    assert content.startswith(b"anything")


def test_nested_attestation_entry_rejected(smartplus_arch):
    with smartplus_arch._protected_execution():
        with pytest.raises(ArchitectureError, match="atomic"):
            with smartplus_arch._protected_execution():
                pass


def test_load_application_rejects_oversized_image(smartplus_arch):
    with pytest.raises(ValueError):
        smartplus_arch.load_application(bytes(100 * 1024))


def test_load_application_pads_and_changes_digest(smartplus_arch):
    before = smartplus_arch.read_measured_memory()
    smartplus_arch.load_application(b"new image")
    after = smartplus_arch.read_measured_memory()
    assert len(before) == len(after) == 512
    assert before != after


def test_clock_is_driven_by_advance_clock(smartplus_arch):
    smartplus_arch.advance_clock(123.0)
    assert smartplus_arch.read_clock() == pytest.approx(123.0)


def test_invalid_application_size_rejected(key):
    rom = build_rom_image(key)
    with pytest.raises(ValueError):
        build_smartplus_architecture(key, application_size=0)
    del rom


def test_measurements_update_counter(smartplus_arch):
    smartplus_arch.advance_clock(5.0)
    smartplus_arch.perform_measurement()
    smartplus_arch.advance_clock(10.0)
    smartplus_arch.perform_measurement()
    assert smartplus_arch.measurements_performed == 2


def test_key_readable_only_inside_the_attestation_guard(key, smartplus_arch):
    with pytest.raises(ArchitectureError, match="ROM attestation code"):
        smartplus_arch._read_key()
    with smartplus_arch._protected_execution():
        assert smartplus_arch._read_key() == key
    with pytest.raises(ArchitectureError, match="ROM attestation code"):
        smartplus_arch._read_key()
