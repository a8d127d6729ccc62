"""Tests for the HYDRA architecture model and the PrAtt process."""

import pytest

from repro.arch.base import ArchitectureError
from repro.hw.memory import AccessContext, AccessViolation
from repro.hydra import build_hydra_architecture
from repro.hydra.architecture import KEY_REGION
from repro.hydra.pratt import KEY_OBJECT
from repro.hydra.sel4 import Capability, CapabilityError, Right


def test_secure_boot_ran_at_construction(hydra_arch):
    assert hydra_arch.secure_boot.booted


def test_images_are_provisioned_once_and_booted_on_every_device(
        monkeypatch, key):
    import repro.hydra.secure_boot as secure_boot_module
    from repro.hydra import architecture
    real = secure_boot_module._sha256
    hashed = []
    monkeypatch.setattr(secure_boot_module, "_sha256",
                        lambda image: hashed.append(image) or real(image))
    architecture._provisioned_digests.cache_clear()
    build_hydra_architecture(key, application_size=1024)
    # Factory provisioning and the first boot hash the kernel and PrAtt.
    assert len(hashed) == 4
    hashed.clear()
    devices = [build_hydra_architecture(key, application_size=1024)
               for _ in range(3)]
    # Later devices share the provisioned digests; each boot still
    # hashes that device's own two images.
    assert len(hashed) == 6
    assert all(device.secure_boot.booted for device in devices)
    assert devices[0].secure_boot.expected_digests is not \
        devices[1].secure_boot.expected_digests


def test_pratt_is_initial_highest_priority_process(hydra_arch):
    assert hydra_arch.pratt.is_highest_priority()
    assert hydra_arch.kernel.process("pratt").parent is None


def test_pratt_has_exclusive_key_access(hydra_arch):
    assert hydra_arch.pratt.has_exclusive_key_access()
    assert hydra_arch.kernel.check_access("pratt", KEY_OBJECT, Right.READ)


def test_spawned_applications_run_below_pratt(hydra_arch):
    hydra_arch.kernel.spawn("pratt", "sensor-loop", 254)
    hydra_arch.kernel.spawn("pratt", "network-daemon", 10)
    assert hydra_arch.pratt.is_highest_priority()
    assert hydra_arch.kernel.process("sensor-loop").priority < 255


def test_application_cannot_get_key_capability(hydra_arch):
    hydra_arch.kernel.spawn("pratt", "app", 254)
    assert not hydra_arch.kernel.check_access("app", KEY_OBJECT, Right.READ)


def test_spawn_at_pratt_priority_rejected(hydra_arch):
    with pytest.raises(CapabilityError):
        hydra_arch.kernel.spawn("pratt", "rogue", 255)


def test_key_region_unreadable_from_normal_world(hydra_arch):
    with pytest.raises(AccessViolation):
        hydra_arch.memory.read_region(KEY_REGION, AccessContext.NORMAL)


def test_key_unreadable_outside_pratt_context(hydra_arch):
    with pytest.raises(ArchitectureError):
        hydra_arch._read_key()


def test_measurement_fails_if_key_capability_leaks(key, firmware):
    architecture = build_hydra_architecture(key, application_size=2048)
    architecture.load_application(firmware)
    # Simulate a capability leak: another process obtains READ on K.
    architecture.kernel.register_object("unrelated")
    architecture.kernel._add_process(
        "evil", 10, [Capability(KEY_OBJECT, Right.READ)], parent="pratt")
    with pytest.raises(ArchitectureError, match="exclusive"):
        architecture.perform_measurement()


def test_measurement_fails_if_pratt_not_highest_priority(key, firmware):
    architecture = build_hydra_architecture(key, application_size=2048)
    architecture.load_application(firmware)
    # A rogue process outranks a demoted PrAtt.
    architecture.kernel.process("pratt").priority = 254
    architecture.kernel._add_process("rogue", 255, [], parent=None)
    with pytest.raises(ArchitectureError):
        architecture.perform_measurement()


def test_software_clock_survives_gpt_wraps(hydra_arch):
    hydra_arch.advance_clock(10.0)
    hydra_arch.advance_clock(200.0)   # several GPT wrap-arounds at 66 MHz
    assert hydra_arch.read_clock() == pytest.approx(200.0, rel=1e-6)


def test_measurement_runtime_uses_imx6_model(hydra_arch):
    hydra_arch.advance_clock(1.0)
    output = hydra_arch.perform_measurement()
    # 4 KB at ~1743 cycles/block on a 1 GHz core: well under a millisecond.
    assert output.duration < 1e-3
    assert output.memory_bytes == 4096


def test_load_application_rejects_oversized_image(hydra_arch):
    with pytest.raises(ValueError):
        hydra_arch.load_application(bytes(10 * 1024 * 1024))


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        build_hydra_architecture(b"", application_size=1024)


def test_pratt_demotion_after_a_measurement_stops_the_next(hydra_arch):
    hydra_arch.perform_measurement()
    hydra_arch.kernel.process("pratt").priority = 254
    hydra_arch.kernel._add_process("rogue", 255, [], parent=None)
    with pytest.raises(ArchitectureError, match="priority"):
        hydra_arch.perform_measurement()
    assert hydra_arch.measurements_performed == 1


def test_key_leak_after_a_measurement_stops_the_next(hydra_arch):
    hydra_arch.perform_measurement()
    hydra_arch.kernel._add_process(
        "evil", 10, [Capability(KEY_OBJECT, Right.READ)], parent="pratt")
    with pytest.raises(ArchitectureError, match="exclusive"):
        hydra_arch.perform_measurement()
    assert hydra_arch.measurements_performed == 1
    # The refused entry left the guard free.
    with pytest.raises(ArchitectureError, match="PrAtt"):
        hydra_arch._read_key()
