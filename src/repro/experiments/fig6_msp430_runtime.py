"""Figure 6 — measurement run-time on the MSP430-class device @ 8 MHz.

The paper sweeps the measured memory size from 0 to 10 KB and plots the
run-time of one measurement for four configurations: {on-demand,
ERASMUS} x {HMAC-SHA256, keyed BLAKE2s}.  Findings to preserve:

* run-time is linear in memory size;
* ERASMUS and on-demand attestation are roughly equivalent (ERASMUS is
  marginally cheaper because it never authenticates a request);
* at 10 KB the slower configuration takes about 7 s (quoted again in
  Section 5).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hw.devices import MCUModel

#: Anchor points from the paper (seconds at 10 KB, 8 MHz).
PAPER_RUNTIME_AT_10KB_S: Dict[str, float] = {
    "hmac-sha256": 7.0,
    "keyed-blake2s": 5.0,
}

DEFAULT_MEMORY_SIZES_KB: Sequence[float] = (0.5, 1, 2, 4, 6, 8, 10)
DEFAULT_MACS: Sequence[str] = ("hmac-sha256", "keyed-blake2s")


def run(memory_sizes_kb: Sequence[float] = DEFAULT_MEMORY_SIZES_KB,
        mac_names: Sequence[str] = DEFAULT_MACS,
        model: MCUModel | None = None) -> List[Dict[str, object]]:
    """Regenerate the Figure 6 series.

    Returns one row per (memory size, MAC) with both the ERASMUS and the
    on-demand run-time in seconds.
    """
    model = model if model is not None else MCUModel()
    rows: List[Dict[str, object]] = []
    for size_kb in memory_sizes_kb:
        memory_bytes = int(size_kb * 1024)
        for mac_name in mac_names:
            erasmus = model.attestation_runtime(memory_bytes, mac_name,
                                                on_demand=False)
            on_demand = model.attestation_runtime(memory_bytes, mac_name,
                                                  on_demand=True)
            rows.append({
                "memory_kb": size_kb,
                "mac": mac_name,
                "erasmus_s": erasmus,
                "on_demand_s": on_demand,
            })
    return rows


def series(rows: List[Dict[str, object]], mac_name: str,
           variant: str) -> List[tuple[float, float]]:
    """Extract one curve: (memory_kb, runtime_s) points for a configuration."""
    key = "erasmus_s" if variant == "erasmus" else "on_demand_s"
    return [(float(row["memory_kb"]), float(row[key]))
            for row in rows if row["mac"] == mac_name]


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the Figure 6 series as a text table."""
    lines = ["Figure 6: Measurement run-time on MSP430 @ 8 MHz (seconds)"]
    lines.append(f"{'memory (KB)':>12}{'MAC':>16}{'ERASMUS':>12}"
                 f"{'on-demand':>12}")
    for row in rows:
        lines.append(f"{row['memory_kb']:>12}{row['mac']:>16}"
                     f"{row['erasmus_s']:>12.3f}{row['on_demand_s']:>12.3f}")
    return "\n".join(lines)


def main() -> None:
    """Print the reproduced Figure 6 series."""
    print(format_table(run()))


if __name__ == "__main__":
    main()
