"""Figure 1 on a real fleet — campaign-engine dwell sweep.

:mod:`repro.experiments.qoa_detection` reproduces Figure 1's shape
from sampled timelines; this harness reproduces it from *end-to-end
campaigns*: every point provisions a real fleet of ERASMUS provers,
deploys :class:`~repro.adversary.fleet.FleetMobileMalware` onto the
shared engine, runs the collection rounds over a transport, and scores
the verifier's actual :class:`~repro.core.verification.
VerificationReport` stream against the adversary's ground truth.  The
expected shape is the same analytic law:

* ERASMUS detection rate ≈ min(1, dwell / T_M), saturating at 1 once
  the dwell time exceeds ``T_M``;
* on-demand detection rate ≈ min(1, dwell / T_C) — near zero for any
  malware that leaves before the next attestation request.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.campaign import CampaignRunner, Scenario, ScenarioGrid

#: Dwell times as fractions of ``T_M`` (mirrors ``qoa_detection``).
DEFAULT_DWELL_FRACTIONS: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def build_grid(measurement_interval: float = 60.0,
               collection_interval: float = 600.0,
               dwell_fractions: Sequence[float] = DEFAULT_DWELL_FRACTIONS,
               devices: int = 120,
               horizon: float = 4 * 3600.0,
               seed: int = 7) -> ScenarioGrid:
    """The dwell-sweep grid: (dwell x protocol) mobile-malware cells."""
    base = Scenario(
        name="dwell-sweep", devices=devices, horizon=horizon,
        measurement_interval=measurement_interval,
        collection_interval=collection_interval,
        malware="mobile", arrival_rate=1.0 / (1.5 * collection_interval),
        victim_fraction=0.5, seed=seed)
    return ScenarioGrid(base=base, axes={
        "dwell": [fraction * measurement_interval
                  for fraction in dwell_fractions],
        "protocol": ["erasmus", "on-demand"],
    })


def run(measurement_interval: float = 60.0,
        collection_interval: float = 600.0,
        dwell_fractions: Sequence[float] = DEFAULT_DWELL_FRACTIONS,
        devices: int = 120,
        horizon: float = 4 * 3600.0,
        seed: int = 7,
        max_workers: Optional[int] = None) -> List[Dict[str, object]]:
    """Sweep dwell time through full campaigns; one row per dwell value.

    Each row merges the ERASMUS and the on-demand cell for that dwell,
    so the output mirrors :func:`repro.experiments.qoa_detection.run`
    and the two harnesses can be compared column for column.
    """
    grid = build_grid(measurement_interval, collection_interval,
                      dwell_fractions, devices, horizon, seed)
    runner = CampaignRunner(grid, name="campaign-dwell-sweep",
                            max_workers=max_workers)
    results = runner.run()
    rows: List[Dict[str, object]] = []
    # cells() expands dwell (slow axis) x protocol (fast axis)
    for index, fraction in enumerate(dwell_fractions):
        erasmus = results[2 * index]
        ondemand = results[2 * index + 1]
        assert erasmus.scenario.protocol == "erasmus"
        assert ondemand.scenario.protocol == "on-demand"
        rows.append({
            "dwell_over_tm": fraction,
            "dwell_s": fraction * measurement_interval,
            "erasmus_detection_rate": erasmus.detection.detection_rate,
            "ondemand_detection_rate": ondemand.detection.detection_rate,
            "analytic_erasmus": erasmus.analytic_detection(),
            "analytic_ondemand": ondemand.analytic_detection(),
            "erasmus_infections": erasmus.detection.total_infections,
            "ondemand_infections": ondemand.detection.total_infections,
            "erasmus_mean_latency_s": erasmus.detection.mean_latency,
            "ondemand_mean_latency_s": ondemand.detection.mean_latency,
        })
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the campaign dwell sweep as a text table."""
    lines = ["Campaign engine: fleet-wide mobile-malware dwell sweep"]
    lines.append(f"{'dwell/T_M':>10}{'ERASMUS':>10}{'on-dem.':>10}"
                 f"{'analytic E':>12}{'analytic OD':>12}{'infections':>12}")
    for row in rows:
        lines.append(
            f"{row['dwell_over_tm']:>10.2f}"
            f"{row['erasmus_detection_rate']:>10.2f}"
            f"{row['ondemand_detection_rate']:>10.2f}"
            f"{row['analytic_erasmus']:>12.2f}"
            f"{row['analytic_ondemand']:>12.2f}"
            f"{row['erasmus_infections']:>12d}")
    return "\n".join(lines)


def main() -> None:
    """Print the campaign dwell sweep."""
    rows = run()
    print(format_table(rows))


if __name__ == "__main__":
    main()
