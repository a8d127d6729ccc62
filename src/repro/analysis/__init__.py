"""Analysis utilities: detection, QoA statistics and parameter sweeps.

These functions operate on *timelines* — measurement times, collection
times and infection intervals — rather than on live simulation objects,
so they are fast enough for the large parameter sweeps behind the QoA
experiments and can also serve as analytic oracles for the end-to-end
simulation tests.
"""

from repro.analysis.detection import (
    DetectionSummary,
    FleetDetectionSummary,
    detection_latency,
    first_exposing_report,
    infection_detected,
    match_fleet_reports,
    simulate_detection,
)
from repro.analysis.qoa_analysis import (
    QoAComparison,
    compare_erasmus_vs_ondemand,
)
from repro.analysis.sweep import ParameterSweep, SweepResult

__all__ = [
    "DetectionSummary",
    "FleetDetectionSummary",
    "ParameterSweep",
    "QoAComparison",
    "SweepResult",
    "compare_erasmus_vs_ondemand",
    "detection_latency",
    "first_exposing_report",
    "infection_detected",
    "match_fleet_reports",
    "simulate_detection",
]
