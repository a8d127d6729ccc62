"""QoA statistics: freshness and ERASMUS-vs-on-demand."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.malware import MalwareCampaign
from repro.analysis.detection import simulate_detection
from repro.core.qoa import QoA


@dataclass
class QoAComparison:
    """Side-by-side QoA outcome of ERASMUS versus on-demand attestation."""

    erasmus: QoA
    on_demand: QoA
    erasmus_detection_rate: float
    on_demand_detection_rate: float
    erasmus_mean_latency: float | None
    on_demand_mean_latency: float | None

    @property
    def detection_advantage(self) -> float:
        """Absolute detection-rate gain of ERASMUS over on-demand RA."""
        return self.erasmus_detection_rate - self.on_demand_detection_rate


def compare_erasmus_vs_ondemand(measurement_interval: float,
                                collection_interval: float,
                                mean_dwell: float,
                                arrival_rate: float = 1 / 600.0,
                                horizon: float = 24 * 3600.0,
                                seed: int = 0) -> QoAComparison:
    """Run matched mobile-malware campaigns against both approaches.

    Both receive the *same* infection campaign (same seed).  ERASMUS
    measures every ``T_M`` and collects every ``T_C``; on-demand RA only
    measures at collection time.  The gap in detection rate is the
    paper's central motivation.
    """
    campaign = MalwareCampaign(arrival_rate=arrival_rate,
                               mean_dwell=mean_dwell, seed=seed)
    erasmus_summary = simulate_detection(
        measurement_interval, collection_interval, campaign, horizon)
    on_demand_summary = simulate_detection(
        measurement_interval, collection_interval, campaign, horizon,
        on_demand_only=True)
    return QoAComparison(
        erasmus=QoA(measurement_interval, collection_interval),
        on_demand=QoA(collection_interval, collection_interval,
                      on_demand_only=True),
        erasmus_detection_rate=erasmus_summary.detection_rate,
        on_demand_detection_rate=on_demand_summary.detection_rate,
        erasmus_mean_latency=erasmus_summary.mean_latency,
        on_demand_mean_latency=on_demand_summary.mean_latency,
    )
