"""Table 1 — size of the attestation executable.

Paper values (KB):

===============  ==================  =================  =================  ================
MAC              SMART+ on-demand    SMART+ ERASMUS     HYDRA on-demand    HYDRA ERASMUS
===============  ==================  =================  =================  ================
HMAC-SHA1        4.9                 4.7                —                  —
HMAC-SHA256      5.1                 4.9                231.96             233.84
Keyed BLAKE2s    28.9                28.7               239.29             241.17
===============  ==================  =================  =================  ================

Qualitative findings to preserve: ERASMUS needs slightly *less* ROM than
on-demand attestation on SMART+ (no verifier-request authentication) and
about 1 % *more* on HYDRA (extra timer driver).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.codesize import CodeSizeModel

#: The paper's Table 1; :func:`run` puts each cell beside the reproduced
#: one as ``paper:<column>``.
PAPER_TABLE1_KB: Dict[str, Dict[str, Optional[float]]] = {
    "hmac-sha1": {"smart+/on-demand": 4.9, "smart+/erasmus": 4.7,
                  "hydra/on-demand": None, "hydra/erasmus": None},
    "hmac-sha256": {"smart+/on-demand": 5.1, "smart+/erasmus": 4.9,
                    "hydra/on-demand": 231.96, "hydra/erasmus": 233.84},
    "keyed-blake2s": {"smart+/on-demand": 28.9, "smart+/erasmus": 28.7,
                      "hydra/on-demand": 239.29, "hydra/erasmus": 241.17},
}

_COLUMNS = ("smart+/on-demand", "smart+/erasmus",
            "hydra/on-demand", "hydra/erasmus")


def run(model: CodeSizeModel | None = None) -> List[Dict[str, object]]:
    """Regenerate Table 1 from the code-size model.

    Returns one row per MAC with the four size columns plus the paper's
    values for comparison.
    """
    model = model if model is not None else CodeSizeModel()
    table = model.table1()
    rows: List[Dict[str, object]] = []
    for mac_name, cells in table.items():
        row: Dict[str, object] = {"mac": mac_name}
        for column in _COLUMNS:
            row[column] = cells[column]
            row[f"paper:{column}"] = PAPER_TABLE1_KB[mac_name][column]
        rows.append(row)
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the rows as a text table shaped like the paper's Table 1."""
    lines = ["Table 1: Size of Attestation Executable (KB)"]
    header = f"{'MAC':<16}" + "".join(f"{column:>20}" for column in _COLUMNS)
    lines.append(header)
    for row in rows:
        cells = []
        for column in _COLUMNS:
            value = row[column]
            cells.append(f"{value:>20.2f}" if value is not None
                         else f"{'-':>20}")
        lines.append(f"{row['mac']:<16}" + "".join(cells))
    return "\n".join(lines)


def main() -> None:
    """Print the reproduced Table 1."""
    print(format_table(run()))


if __name__ == "__main__":
    main()
