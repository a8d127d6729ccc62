"""Checks that a regenerated table or figure keeps the paper's shape.

Shared by the experiment tests and the benchmarks that regenerate the
same rows.
"""

from typing import Dict, List, Sequence


def matches_paper(rows: List[Dict[str, object]],
                  tolerance_kb: float = 0.05) -> bool:
    """True when every reproduced Table 1 cell is within ``tolerance_kb``
    of the ``paper:<column>`` value stored next to it."""
    for row in rows:
        for key, expected in row.items():
            if not key.startswith("paper:"):
                continue
            measured = row[key[len("paper:"):]]
            if (measured is None) != (expected is None):
                return False
            if measured is not None and expected is not None and \
                    abs(float(measured) - float(expected)) > tolerance_kb:
                return False
    return True


def erasmus_equals_ondemand(rows: List[Dict[str, object]]) -> bool:
    """The paper's hardware-cost finding: ERASMUS costs exactly what
    on-demand attestation costs."""
    by_variant = {row["variant"]: row for row in rows}
    erasmus = by_variant["erasmus"]
    on_demand = by_variant["on-demand"]
    return (erasmus["registers"] == on_demand["registers"] and
            erasmus["luts"] == on_demand["luts"])


def linearity_error(points: Sequence[tuple[float, float]]) -> float:
    """Maximum relative deviation of the points from the straight line
    through the first and last point (Figure 6 shows straight lines)."""
    if len(points) < 3:
        return 0.0
    (x0, y0), (x1, y1) = points[0], points[-1]
    slope = (y1 - y0) / (x1 - x0)
    worst = 0.0
    for x, y in points[1:-1]:
        predicted = y0 + slope * (x - x0)
        if y > 0:
            worst = max(worst, abs(predicted - y) / y)
    return worst
