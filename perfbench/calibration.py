"""Machine-speed calibration taken beside every timed interval.

The benchmark shares its machine with other work, and the machine's
speed jumps by up to half for seconds to minutes at a time.  Each timed
interval (set-up, each round, the restores) is therefore bracketed by a
fixed reference kernel, timed just before and just after it.  Timed
metrics are reported in *reference seconds*: the measured time scaled
by ``REFERENCE_KERNEL_S`` over the kernel's median time around that
interval.  A change that makes the program faster lowers the measured
time but not the kernel's, so it shows in full; a slow spell of the
machine slows both and cancels.  Raw wall-clock figures stay in the
result's info line.

The kernel imitates the program's own work: struct packing, keyed
BLAKE2s, small tuples and dicts, a sort and JSON encoding.  The cyclic
collector is paused while it runs, so a collection triggered by the
fleet's heap is not charged to it.  The kernel shares the pass's
process and caches, so a change that bloats the heap may slow it a
little too; ``peak_rss_mb`` and ``mem.*`` report such changes directly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import struct
import time
from typing import List, Sequence

#: Kernel time that defines one reference second's worth of speed
#: (seconds); it only fixes the scale of the reported figures.
REFERENCE_KERNEL_S = 0.012

#: Kernel runs per calibration point.
REPEATS = 3

_RECORD = struct.Struct(">Qd")
_KEY = b"perfbench-calibration-key-000000"


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is elided."""
    rows = []
    checksum = 0
    for index in range(8000):
        payload = _RECORD.pack(index, index * 0.5)
        digest = hashlib.blake2s(payload, key=_KEY).digest()
        rows.append({"index": index, "digest": digest,
                     "fields": _RECORD.unpack(payload)})
        checksum ^= digest[0]
    rows.sort(key=lambda row: row["digest"])
    checksum += len(json.dumps([row["index"] for row in rows[:1000]]))
    return checksum


def point() -> List[float]:
    """Time the kernel :data:`REPEATS` times with the cyclic GC paused."""
    samples: List[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return samples


def factor(*points: Sequence[float]) -> float:
    """Reference seconds per measured second between calibration points."""
    samples = [sample for taken in points for sample in taken]
    return REFERENCE_KERNEL_S / statistics.median(samples)
