"""Tests for the RROC models (hardware and software constructions)."""

import pytest

from repro.hw.clock import (
    ClockTamperError,
    ReliableClock,
    SoftwareClock,
    WrappingCounter,
)


class TestReliableClock:
    def test_starts_at_zero(self):
        assert ReliableClock().read() == 0.0

    def test_advance_to_absolute_time(self):
        clock = ReliableClock(frequency_hz=1_000_000.0)
        clock.advance_to(12.5)
        assert clock.read() == pytest.approx(12.5)

    def test_cannot_move_backwards(self):
        clock = ReliableClock()
        clock.advance_to(100.0)
        with pytest.raises(ClockTamperError):
            clock.advance_to(50.0)

    def test_software_write_is_rejected(self):
        clock = ReliableClock()
        clock.advance_to(10.0)
        with pytest.raises(ClockTamperError):
            clock.write(0)
        assert clock.read() == pytest.approx(10.0)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            ReliableClock(frequency_hz=0.0)


class TestWrappingCounter:
    def test_wraps_at_width(self):
        counter = WrappingCounter(frequency_hz=100.0, width_bits=8)
        counter.advance_to(2.0)   # 200 cycles < 256: no wrap
        assert counter.wrap_count() == 0
        wraps = counter.advance_to(6.0)  # 600 cycles -> 2 wraps
        assert wraps == 2
        assert counter.value() == 600 % 256

    def test_cannot_move_backwards(self):
        counter = WrappingCounter(frequency_hz=100.0, width_bits=8)
        counter.advance_to(5.0)
        with pytest.raises(ClockTamperError):
            counter.advance_to(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WrappingCounter(frequency_hz=0.0)
        with pytest.raises(ValueError):
            WrappingCounter(frequency_hz=10.0, width_bits=0)


class TestSoftwareClock:
    def test_reads_combine_high_bits_and_counter(self):
        counter = WrappingCounter(frequency_hz=1000.0, width_bits=10)
        clock = SoftwareClock(counter)
        clock.advance_to(5.0)  # 5000 cycles, modulus 1024 -> 4 wraps
        assert clock.read() == pytest.approx(5.0, rel=1e-6)

    def test_untrusted_wrap_handling_loses_time(self):
        counter = WrappingCounter(frequency_hz=1000.0, width_bits=10)
        clock = SoftwareClock(counter)
        clock.advance_to(5.0, trusted=False)
        # High bits were never updated, so the clock reads less than 5 s.
        assert clock.read() < 5.0

    def test_monotonic_across_many_wraps(self):
        counter = WrappingCounter(frequency_hz=66_000_000.0, width_bits=32)
        clock = SoftwareClock(counter)
        previous = 0.0
        for time in (10.0, 65.0, 66.0, 130.0, 500.0):
            clock.advance_to(time)
            value = clock.read()
            assert value >= previous
            assert value == pytest.approx(time, rel=1e-6)
            previous = value
