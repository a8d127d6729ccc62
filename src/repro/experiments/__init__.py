"""Experiment harnesses: one module per table / figure in the paper.

Every module exposes a ``run(...)`` function returning plain rows
(lists of dicts) and a ``format_table(rows)`` helper that renders the
same rows the paper reports.  The benchmark suite under ``benchmarks/``
wraps these harnesses with pytest-benchmark and asserts that each
regenerated result keeps the paper's shape; the shared checks live in
``tests/experiments/paper_checks.py``.

| Module | Paper artifact |
|---------------------------|--------------------------------------------|
| ``table1_codesize``       | Table 1 — attestation executable size      |
| ``table2_collection``     | Table 2 — collection-phase run-time        |
| ``fig6_msp430_runtime``   | Figure 6 — MSP430 measurement run-time     |
| ``fig8_imx6_runtime``     | Figure 8 — i.MX6 measurement run-time      |
| ``hwcost``                | Section 4.1 — registers / LUTs             |
| ``qoa_detection``         | Figure 1 / Section 3.1 — QoA & detection   |
| ``campaign_detection``    | Figure 1 on a real fleet (campaign engine) |
| ``irregular_intervals``   | Section 3.5 — schedule-aware malware       |
| ``availability``          | Section 5 — availability / lenient windows |
| ``swarm_mobility``        | Section 6 — swarm attestation & mobility   |
| ``swarm_mobility_fleet``  | Section 6 on real provers (mobile relay)   |
| ``fleet_collection``      | (repro-own) fleet round devices/second per |
|                           | transport, and interleaved paired ratios   |
|                           | for collection path, store and obs mode    |
"""

from repro.experiments import (
    availability,
    campaign_detection,
    fig6_msp430_runtime,
    fig8_imx6_runtime,
    fleet_collection,
    hwcost,
    irregular_intervals,
    qoa_detection,
    swarm_mobility,
    swarm_mobility_fleet,
    table1_codesize,
    table2_collection,
)

__all__ = [
    "availability",
    "campaign_detection",
    "fig6_msp430_runtime",
    "fig8_imx6_runtime",
    "fleet_collection",
    "hwcost",
    "irregular_intervals",
    "qoa_detection",
    "swarm_mobility",
    "swarm_mobility_fleet",
    "table1_codesize",
    "table2_collection",
]
