"""Device cost models for the paper's two prototype targets.

The paper measures ERASMUS on:

* an MSP430-class low-end MCU at 8 MHz (openMSP430 on FPGA, SMART+),
  Figure 6;
* an i.MX6 Sabre Lite application processor at 1 GHz (HYDRA on seL4),
  Figure 8 and Table 2.

We obviously cannot run either here, so the models below translate
cryptographic work (compression-function invocations, obtained from the
real MAC implementations in :mod:`repro.crypto`) into device cycles and
seconds.  The per-block cycle constants are *calibrated* so that the
model's curves pass through the end-points the paper reports:

* MSP430, 10 KB, HMAC-SHA256  ->  ~7 s (the "7 seconds on an 8-MHz
  device with 10 KB RAM" quoted in Section 5);
* MSP430, 10 KB, keyed BLAKE2s -> ~5 s (the faster curve in Figure 6);
* i.MX6, 10 MB, keyed BLAKE2s  -> 285.6 ms (Table 2's "Compute
  Measurement" row and the Figure 8 curve);
* i.MX6 collection-phase constants of Table 2 (construct UDP packet
  0.003 ms, send 0.012 ms, verify request 0.005 ms).

Run-time is linear in memory size with a small fixed offset, exactly the
shape both figures show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.crypto.mac import get_mac


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Run-time of one attestation operation, split into its parts.

    All values are in seconds.  ``request_auth`` is zero for plain
    ERASMUS self-measurements (no verifier request to authenticate) and
    non-zero for on-demand attestation and ERASMUS+OD.
    """

    request_auth: float
    measurement: float
    fixed_overhead: float

    @property
    def total(self) -> float:
        """Total run-time in seconds."""
        return self.request_auth + self.measurement + self.fixed_overhead


class DeviceCostModel:
    """Base cycle-cost model shared by both prototype targets.

    Parameters
    ----------
    name:
        Human-readable device name.
    clock_hz:
        Core clock frequency.
    cycles_per_block:
        Calibrated cycles spent per 64-byte compression block, keyed by
        MAC algorithm name (see :mod:`repro.crypto.mac`).
    fixed_overhead_cycles:
        Per-invocation overhead (entering the ROM routine / PrAtt
        process, setting up DMA-free memory reads, storing the result).
    request_auth_bytes:
        Size of the verifier request that must be MAC-verified for
        on-demand attestation (SMART+ / ERASMUS+OD).
    """

    def __init__(self, name: str, clock_hz: float,
                 cycles_per_block: Dict[str, float],
                 fixed_overhead_cycles: float,
                 request_auth_bytes: int = 16) -> None:
        if clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        if fixed_overhead_cycles < 0:
            raise ValueError("fixed overhead must be non-negative")
        self.name = name
        self.clock_hz = clock_hz
        self.cycles_per_block = dict(cycles_per_block)
        self.fixed_overhead_cycles = fixed_overhead_cycles
        self.request_auth_bytes = request_auth_bytes

    def supported_macs(self) -> list[str]:
        """MAC algorithm names this model has calibration data for."""
        return sorted(self.cycles_per_block)

    def _cycles_per_block(self, mac_name: str) -> float:
        try:
            return self.cycles_per_block[mac_name.lower()]
        except KeyError as exc:
            known = ", ".join(self.supported_macs())
            raise ValueError(
                f"{self.name} has no calibration for MAC {mac_name!r}; "
                f"known: {known}") from exc

    def measurement_cycles(self, memory_bytes: int, mac_name: str) -> float:
        """Cycles needed to hash+MAC ``memory_bytes`` of prover memory."""
        if memory_bytes < 0:
            raise ValueError("memory size must be non-negative")
        algorithm = get_mac(mac_name)
        blocks = algorithm.compression_count(memory_bytes)
        return blocks * self._cycles_per_block(mac_name) + \
            self.fixed_overhead_cycles

    def measurement_runtime(self, memory_bytes: int, mac_name: str) -> float:
        """Seconds needed for one ERASMUS self-measurement."""
        return self.measurement_cycles(memory_bytes, mac_name) / self.clock_hz

    def request_auth_cycles(self, mac_name: str) -> float:
        """Cycles needed to authenticate one verifier request (anti-DoS)."""
        algorithm = get_mac(mac_name)
        blocks = algorithm.compression_count(self.request_auth_bytes)
        return blocks * self._cycles_per_block(mac_name)

    def request_auth_runtime(self, mac_name: str) -> float:
        """Seconds needed to authenticate one verifier request."""
        return self.request_auth_cycles(mac_name) / self.clock_hz

    def runtime_breakdown(self, memory_bytes: int, mac_name: str,
                          on_demand: bool) -> RuntimeBreakdown:
        """Full run-time breakdown for one attestation operation.

        ``on_demand=True`` covers SMART+-style on-demand attestation and
        the ERASMUS+OD collection, both of which must authenticate the
        verifier's request before measuring.
        """
        request = self.request_auth_runtime(mac_name) if on_demand else 0.0
        blocks = get_mac(mac_name).compression_count(memory_bytes)
        measurement = blocks * self._cycles_per_block(mac_name) / self.clock_hz
        overhead = self.fixed_overhead_cycles / self.clock_hz
        return RuntimeBreakdown(request_auth=request, measurement=measurement,
                                fixed_overhead=overhead)

    def attestation_runtime(self, memory_bytes: int, mac_name: str,
                            on_demand: bool) -> float:
        """Total seconds for one attestation operation."""
        return self.runtime_breakdown(memory_bytes, mac_name, on_demand).total

    #: Generic packet-handling costs (cycles) used by the base
    #: collection-runtime model; the i.MX6 model overrides the whole
    #: method with the measured Table 2 constants instead.
    PACKET_CONSTRUCT_CYCLES = 1_000.0
    PACKET_SEND_CYCLES = 2_000.0

    def collection_runtime(self, memory_bytes: int, mac_name: str,
                           on_demand: bool) -> Dict[str, float]:
        """Collection-phase run-time breakdown (prover side).

        A plain ERASMUS collection only reads stored records and hands
        them to the transport — no cryptography.  An on-demand (or
        ERASMUS+OD) request additionally pays for request verification
        and a full measurement.
        """
        verify_request = self.request_auth_runtime(mac_name) if on_demand \
            else 0.0
        compute = self.measurement_runtime(memory_bytes, mac_name) \
            if on_demand else 0.0
        construct = self.PACKET_CONSTRUCT_CYCLES / self.clock_hz
        send = self.PACKET_SEND_CYCLES / self.clock_hz
        return {
            "verify_request": verify_request,
            "compute_measurement": compute,
            "construct_packet": construct,
            "send_packet": send,
            "total": verify_request + compute + construct + send,
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"clock_hz={self.clock_hz:g})")


class MCUModel(DeviceCostModel):
    """MSP430-class low-end MCU (the paper's SMART+ target, Figure 6).

    The default constants are calibrated so that a 10 KB measurement
    takes ~7 s with HMAC-SHA256 and ~5 s with keyed BLAKE2s at 8 MHz.
    """

    DEFAULT_CYCLES_PER_BLOCK: Dict[str, float] = {
        "hmac-sha1": 320_000.0,
        "hmac-sha256": 343_500.0,
        "keyed-blake2s": 248_400.0,
    }

    def __init__(self, clock_hz: float = 8_000_000.0,
                 cycles_per_block: Dict[str, float] | None = None,
                 fixed_overhead_cycles: float = 12_000.0) -> None:
        super().__init__(
            name="MSP430 (openMSP430, SMART+)",
            clock_hz=clock_hz,
            cycles_per_block=cycles_per_block or dict(
                self.DEFAULT_CYCLES_PER_BLOCK),
            fixed_overhead_cycles=fixed_overhead_cycles,
        )


class ApplicationCPUModel(DeviceCostModel):
    """i.MX6 Sabre Lite class processor (the paper's HYDRA target).

    Besides the measurement cost model (Figure 8), this model carries
    the collection-phase constants of Table 2:

    * ``request_verify_seconds`` — verifying the verifier's request MAC
      (ERASMUS+OD only), 0.005 ms;
    * ``packet_construct_seconds`` — building the UDP response, 0.003 ms;
    * ``packet_send_seconds`` — handing it to the Ethernet driver, 0.012 ms.
    """

    DEFAULT_CYCLES_PER_BLOCK: Dict[str, float] = {
        "hmac-sha1": 2_900.0,
        "hmac-sha256": 3_357.0,
        "keyed-blake2s": 1_743.0,
    }

    def __init__(self, clock_hz: float = 1_000_000_000.0,
                 cycles_per_block: Dict[str, float] | None = None,
                 fixed_overhead_cycles: float = 50_000.0,
                 request_verify_seconds: float = 5e-6,
                 packet_construct_seconds: float = 3e-6,
                 packet_send_seconds: float = 12e-6) -> None:
        super().__init__(
            name="i.MX6 Sabre Lite (seL4, HYDRA)",
            clock_hz=clock_hz,
            cycles_per_block=cycles_per_block or dict(
                self.DEFAULT_CYCLES_PER_BLOCK),
            fixed_overhead_cycles=fixed_overhead_cycles,
        )
        self.request_verify_seconds = request_verify_seconds
        self.packet_construct_seconds = packet_construct_seconds
        self.packet_send_seconds = packet_send_seconds

    def collection_runtime(self, memory_bytes: int, mac_name: str,
                           on_demand: bool) -> Dict[str, float]:
        """Collection-phase run-time breakdown, reproducing Table 2.

        Returns a mapping with the same rows as the paper's table:
        ``verify_request``, ``compute_measurement``, ``construct_packet``,
        ``send_packet`` and ``total``.  For plain ERASMUS the first two
        are zero — the prover only reads and transmits stored records.
        """
        verify_request = self.request_verify_seconds if on_demand else 0.0
        compute = self.measurement_runtime(memory_bytes, mac_name) \
            if on_demand else 0.0
        total = (verify_request + compute + self.packet_construct_seconds +
                 self.packet_send_seconds)
        return {
            "verify_request": verify_request,
            "compute_measurement": compute,
            "construct_packet": self.packet_construct_seconds,
            "send_packet": self.packet_send_seconds,
            "total": total,
        }
