"""Hardware substrate models.

The paper's prototypes run on an openMSP430 core (modified for SMART+)
and an i.MX6 Sabre Lite board (under seL4 for HYDRA).  Neither is
available here, so this package provides functional + cost models of the
pieces ERASMUS needs:

* :mod:`repro.hw.memory` — memory regions with hardware access-control
  rules (ROM-resident code, exclusive key access, insecure measurement
  storage);
* :mod:`repro.hw.clock` — the Reliable Read-Only Clock (RROC), both as
  a hardware register (SMART+) and as the software construction over a
  wrapping GPT counter (HYDRA);
* :mod:`repro.hw.devices` — cycle-cost models for the MSP430-class and
  i.MX6-class targets, calibrated to the paper's Figures 6 and 8;
* :mod:`repro.hw.codesize` — the executable-size model behind Table 1;
* :mod:`repro.hw.synthesis` — the register/LUT cost model behind the
  hardware-cost numbers in Section 4.1.
"""

from repro.hw.clock import ReliableClock, SoftwareClock, WrappingCounter
from repro.hw.codesize import CodeSizeModel, CodeSizeReport
from repro.hw.devices import (
    ApplicationCPUModel,
    DeviceCostModel,
    MCUModel,
    RuntimeBreakdown,
)
from repro.hw.memory import (
    AccessContext,
    AccessPolicy,
    AccessViolation,
    DeviceMemory,
    MemoryRegion,
    RegionKind,
)
from repro.hw.synthesis import SynthesisModel, SynthesisReport

__all__ = [
    "AccessContext",
    "AccessPolicy",
    "AccessViolation",
    "ApplicationCPUModel",
    "CodeSizeModel",
    "CodeSizeReport",
    "DeviceCostModel",
    "DeviceMemory",
    "MCUModel",
    "MemoryRegion",
    "RegionKind",
    "ReliableClock",
    "RuntimeBreakdown",
    "SoftwareClock",
    "SynthesisModel",
    "SynthesisReport",
    "WrappingCounter",
]
