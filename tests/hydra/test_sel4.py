"""Tests for the seL4-like microkernel model."""

import pytest

from repro.hydra.sel4 import Capability, CapabilityError, Microkernel, Right


def build_kernel() -> Microkernel:
    kernel = Microkernel()
    kernel.register_object("key_region")
    kernel.register_object("shared_buffer")
    return kernel


def test_initial_process_gets_requested_capabilities():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [
        Capability("key_region", Right.READ),
        Capability("shared_buffer", Right.READ | Right.WRITE | Right.GRANT),
    ])
    assert kernel.check_access("pratt", "key_region", Right.READ)
    assert not kernel.check_access("pratt", "key_region", Right.WRITE)


def test_only_one_initial_process_allowed():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [])
    with pytest.raises(CapabilityError):
        kernel.create_initial_process("second", 254, [])


def test_spawn_requires_lower_priority():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [])
    with pytest.raises(CapabilityError):
        kernel.spawn("pratt", "app", 255)
    kernel.spawn("pratt", "app", 100)
    assert kernel.process("app").parent == "pratt"


def test_grant_requires_grant_right():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [
        Capability("key_region", Right.READ),
        Capability("shared_buffer", Right.ALL),
    ])
    # Key capability has no GRANT right: delegation must fail.
    with pytest.raises(CapabilityError):
        kernel.spawn("pratt", "app", 100,
                     [Capability("key_region", Right.READ)])
    # The shared buffer carries GRANT, so delegation succeeds.
    kernel.spawn("pratt", "app", 100,
                 [Capability("shared_buffer", Right.READ)])
    assert kernel.check_access("app", "shared_buffer", Right.READ)
    assert not kernel.check_access("app", "shared_buffer", Right.WRITE)


def test_delegated_capability_is_diminished_to_parent_rights():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [
        Capability("shared_buffer", Right.READ | Right.GRANT),
    ])
    kernel.spawn("pratt", "app", 10,
                 [Capability("shared_buffer", Right.ALL)])
    assert kernel.check_access("app", "shared_buffer", Right.READ)
    assert not kernel.check_access("app", "shared_buffer", Right.WRITE)


def test_access_denials_are_recorded():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [])
    kernel.spawn("pratt", "malware", 5)
    assert not kernel.check_access("malware", "key_region", Right.READ)
    assert ("malware", "key_region", "READ") in kernel.access_denials
    with pytest.raises(CapabilityError):
        kernel.require_access("malware", "key_region", Right.READ)


def test_exclusive_holder_detection():
    kernel = build_kernel()
    kernel.create_initial_process("pratt", 255, [
        Capability("key_region", Right.READ | Right.GRANT),
    ])
    assert kernel.exclusive_holder("key_region") == "pratt"
    kernel.spawn("pratt", "leak", 10, [Capability("key_region", Right.READ)])
    assert kernel.exclusive_holder("key_region") is None


def test_duplicate_and_unknown_names_rejected():
    kernel = build_kernel()
    with pytest.raises(ValueError):
        kernel.register_object("key_region")
    kernel.create_initial_process("pratt", 255, [])
    with pytest.raises(ValueError):
        kernel.spawn("pratt", "pratt", 10)
    with pytest.raises(KeyError):
        kernel.process("ghost")
    # Delegating a capability to an unregistered object fails: either at
    # the grant check (the parent cannot hold it) or at registration.
    with pytest.raises((ValueError, CapabilityError)):
        kernel.spawn("pratt", "app", 10,
                     [Capability("not_registered", Right.READ)])
