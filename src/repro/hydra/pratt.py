"""The PrAtt attestation process.

In HYDRA, PrAtt is the initial user-space process.  It runs at the
highest scheduling priority, holds exclusive capabilities to the
attestation key region, to its own thread control block and to the
memory used for key-related computation, and spawns every other
user-space process at a strictly lower priority.  This module captures
that setup and the invariant checks the architecture relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hydra.sel4 import Capability, Microkernel, Right

#: Kernel object names PrAtt needs exclusive access to.
KEY_OBJECT = "key_region"
SCRATCH_OBJECT = "mac_scratch"
TCB_OBJECT = "pratt_tcb"
RROC_OBJECT = "rroc_high_bits"


@dataclass
class PrAttProcess:
    """Handle to the attestation process inside the microkernel."""

    kernel: Microkernel
    name: str = "pratt"
    priority: int = Microkernel.MAX_PRIORITY

    @classmethod
    def boot(cls, kernel: Microkernel,
             priority: int = Microkernel.MAX_PRIORITY) -> "PrAttProcess":
        """Create PrAtt as the initial process with its exclusive capabilities."""
        for object_name in (KEY_OBJECT, SCRATCH_OBJECT, TCB_OBJECT, RROC_OBJECT):
            if object_name not in kernel.objects():
                kernel.register_object(object_name)
        capabilities = [
            Capability(KEY_OBJECT, Right.READ),
            Capability(SCRATCH_OBJECT, Right.READ | Right.WRITE),
            Capability(TCB_OBJECT, Right.READ | Right.WRITE),
            Capability(RROC_OBJECT, Right.READ | Right.WRITE),
        ]
        kernel.create_initial_process("pratt", priority, capabilities)
        return cls(kernel=kernel, name="pratt", priority=priority)

    def has_exclusive_key_access(self) -> bool:
        """HYDRA's key-protection property: only PrAtt can read ``K``."""
        return self.kernel.exclusive_holder(KEY_OBJECT, Right.READ) == self.name

    def is_highest_priority(self) -> bool:
        """HYDRA's atomicity property: PrAtt outranks every other process."""
        scheduled = self.kernel.schedule()
        return scheduled is not None and scheduled.name == self.name

    def update_rroc_high_bits(self) -> None:
        """Check that PrAtt may service the GPT wrap-around interrupt."""
        self.kernel.require_access(self.name, RROC_OBJECT, Right.WRITE)
