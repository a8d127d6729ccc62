"""Section 4.1 hardware cost — registers and look-up tables.

Paper numbers (openMSP430 on FPGA, Xilinx ISE 14.7):

* unmodified core: 579 registers, 1731 LUTs;
* with SMART+/ERASMUS modifications: 655 registers (+13 %), 1969 LUTs
  (+14 %);
* ERASMUS needs exactly the same hardware as on-demand attestation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hw.synthesis import SynthesisModel

#: Paper values for side-by-side comparison.
PAPER_HW_COST = {
    "unmodified": {"registers": 579, "luts": 1731},
    "on-demand": {"registers": 655, "luts": 1969},
    "erasmus": {"registers": 655, "luts": 1969},
}


def run(model: SynthesisModel | None = None) -> List[Dict[str, object]]:
    """Regenerate the hardware-cost comparison."""
    model = model if model is not None else SynthesisModel()
    rows: List[Dict[str, object]] = []
    for variant, report in model.comparison().items():
        rows.append({
            "variant": variant,
            "registers": report.registers,
            "luts": report.luts,
            "register_overhead_pct": report.register_overhead * 100,
            "lut_overhead_pct": report.lut_overhead * 100,
            "paper:registers": PAPER_HW_COST[variant]["registers"],
            "paper:luts": PAPER_HW_COST[variant]["luts"],
        })
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the hardware-cost rows as a text table."""
    lines = ["Hardware cost (openMSP430 synthesis model)"]
    lines.append(f"{'variant':<14}{'registers':>12}{'LUTs':>10}"
                 f"{'reg +%':>10}{'LUT +%':>10}")
    for row in rows:
        lines.append(f"{row['variant']:<14}{row['registers']:>12}"
                     f"{row['luts']:>10}{row['register_overhead_pct']:>10.1f}"
                     f"{row['lut_overhead_pct']:>10.1f}")
    return "\n".join(lines)


def main() -> None:
    """Print the reproduced hardware-cost comparison."""
    print(format_table(run()))


if __name__ == "__main__":
    main()
