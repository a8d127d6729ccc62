"""Tests for memory regions and hardware access control."""

import pytest

from repro.hw.memory import (
    AccessContext,
    AccessPolicy,
    AccessViolation,
    DeviceMemory,
    MemoryRegion,
    RegionKind,
)


def build_memory() -> DeviceMemory:
    memory = DeviceMemory()
    memory.add_region(MemoryRegion("rom", 0, 64, RegionKind.ROM,
                                   AccessPolicy.rom_code(),
                                   bytearray(b"\xAA" * 64)))
    memory.add_region(MemoryRegion("key", 64, 16, RegionKind.ROM,
                                   AccessPolicy.secret_key(),
                                   bytearray(b"\x11" * 16)))
    memory.add_region(MemoryRegion("ram", 80, 128, RegionKind.RAM))
    return memory


def test_region_lookup_and_sizes():
    memory = build_memory()
    assert memory.region("rom").size == 64
    assert [region.name for region in memory.regions()] == ["rom", "key", "ram"]


def test_unknown_region_raises():
    with pytest.raises(KeyError):
        build_memory().region("flash")


def test_duplicate_region_name_rejected():
    memory = build_memory()
    with pytest.raises(ValueError, match="duplicate"):
        memory.add_region(MemoryRegion("ram", 500, 8, RegionKind.RAM))


def test_overlapping_regions_rejected():
    memory = build_memory()
    with pytest.raises(ValueError, match="overlaps"):
        memory.add_region(MemoryRegion("overlap", 70, 32, RegionKind.RAM))


def test_zero_sized_region_rejected():
    with pytest.raises(ValueError):
        MemoryRegion("empty", 0, 0, RegionKind.RAM)


def test_initial_data_length_must_match():
    with pytest.raises(ValueError):
        MemoryRegion("bad", 0, 8, RegionKind.RAM, data=bytearray(b"\x00" * 4))


def test_normal_read_write_on_open_region():
    memory = build_memory()
    memory.write_region("ram", b"hello", AccessContext.NORMAL)
    assert memory.read_region("ram", AccessContext.NORMAL)[:5] == b"hello"


def test_rom_is_not_writable_by_anyone():
    memory = build_memory()
    for context in AccessContext:
        with pytest.raises(AccessViolation):
            memory.write_region("rom", b"\x00", context)
    assert memory.read_region("rom") == b"\xAA" * 64


def test_key_readable_only_from_attestation_context():
    memory = build_memory()
    assert memory.read_region("key", AccessContext.ATTESTATION) == \
        b"\x11" * 16
    with pytest.raises(AccessViolation):
        memory.read_region("key", AccessContext.NORMAL)
    with pytest.raises(AccessViolation):
        memory.read_region("key", AccessContext.DMA)


def test_violations_are_recorded():
    memory = build_memory()
    with pytest.raises(AccessViolation):
        memory.read_region("key", AccessContext.NORMAL)
    with pytest.raises(AccessViolation):
        memory.write_region("rom", b"\x00", AccessContext.ATTESTATION)
    assert memory.violations == [
        ("key", AccessContext.NORMAL, "read"),
        ("rom", AccessContext.ATTESTATION, "write")]


def test_read_write_region_by_name():
    memory = build_memory()
    memory.write_region("ram", b"abc", offset=10)
    assert memory.read_region("ram")[10:13] == b"abc"


def test_write_region_bounds_checked():
    memory = build_memory()
    with pytest.raises(ValueError):
        memory.write_region("ram", b"x" * 64, offset=100)


def test_policy_factories():
    open_policy = AccessPolicy.open()
    assert AccessContext.NORMAL in open_policy.readable
    assert AccessContext.NORMAL in open_policy.writable
    secret = AccessPolicy.secret_key()
    assert secret.readable == frozenset({AccessContext.ATTESTATION})
    assert not secret.writable


def test_denied_key_read_records_one_violation_and_keeps_data():
    memory = build_memory()
    with pytest.raises(AccessViolation, match="normal context may not read"):
        memory.read_region("key", AccessContext.NORMAL)
    assert memory.violations == [("key", AccessContext.NORMAL, "read")]
    assert memory.region("key").data == b"\x11" * 16


def test_allowed_reads_record_no_violation():
    memory = build_memory()
    memory.read_region("key", AccessContext.ATTESTATION)
    memory.read_region("ram", AccessContext.NORMAL)
    memory.read_region("rom", AccessContext.DMA)
    assert memory.violations == []


def test_access_context_hash_is_the_identity_hash():
    assert AccessContext.__hash__ is object.__hash__
    assert len({context: None for context in AccessContext}) == 3


@pytest.mark.parametrize("factory, readers, writers", [
    (AccessPolicy.open, set(AccessContext), set(AccessContext)),
    (AccessPolicy.rom_code, set(AccessContext), set()),
    (AccessPolicy.secret_key, {AccessContext.ATTESTATION}, set()),
    (AccessPolicy.attestation_private, {AccessContext.ATTESTATION},
     {AccessContext.ATTESTATION}),
])
def test_every_policy_check_still_denies_outsiders(factory, readers,
                                                   writers):
    memory = DeviceMemory()
    memory.add_region(MemoryRegion("region", 0, 8, RegionKind.RAM,
                                   factory()))
    for context in AccessContext:
        if context in readers:
            assert len(memory.read_region("region", context)) == 8
        else:
            with pytest.raises(AccessViolation):
                memory.read_region("region", context)
        if context in writers:
            memory.write_region("region", b"\x01", context)
        else:
            with pytest.raises(AccessViolation):
                memory.write_region("region", b"\x01", context)
