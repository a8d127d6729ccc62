"""Tests for the SMART+ ROM image builder."""

import pytest

from repro.smartplus import build_rom_image


def test_rom_image_size_matches_codesize_model():
    image = build_rom_image(b"K" * 16, mac_name="keyed-blake2s",
                            variant="on-demand")
    assert len(image.code) == int(round(28.9 * 1024))


def test_rom_image_is_deterministic():
    first = build_rom_image(b"K" * 16, mac_name="hmac-sha256")
    second = build_rom_image(b"other key", mac_name="hmac-sha256")
    assert first.code == second.code
    assert first.key != second.key


def test_different_variants_have_different_code():
    erasmus = build_rom_image(b"K", variant="erasmus")
    on_demand = build_rom_image(b"K", variant="on-demand")
    assert erasmus.code != on_demand.code
    assert len(erasmus.code) < len(on_demand.code)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        build_rom_image(b"")
