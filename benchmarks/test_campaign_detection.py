"""Benchmark: campaign engine — Figure 1 on real fleets, at fleet scale.

Two pins, per the campaign-engine acceptance bar:

* the ERASMUS-vs-on-demand dwell sweep, run as *end-to-end campaigns*
  on real provisioned fleets, must keep Figure 1's shape: detection
  tracks ``min(1, dwell / T_M)`` within tolerance, saturates at 1 once
  the dwell exceeds ``T_M``, and the on-demand baseline stays near
  zero for short dwells;
* the flagship cell — 1,000 devices on the swarm-relay transport
  under partition-and-merge mobility with a store crash injected
  mid-round — must run end to end, recover through the durable
  verifier, and still detect a majority of the long-dwell infections.

The whole campaign (sweep + flagship) is serialized to one JSON
artifact (``CAMPAIGN_ARTIFACT`` env var, default
``campaign_detection.json``) that CI uploads, and the campaign
engine's orchestration overhead is recorded against a clean
manually-driven fleet round of the same size.
"""

import json
import os
import time

from repro.campaign import CampaignRunner, Scenario, run_scenario
from repro.core.qoa import detection_probability
from repro.experiments import campaign_detection
from repro.fleet import DeviceProfile, Fleet

_DEVICES = 120
_HORIZON = 4 * 3600.0
_FRACTIONS = (0.25, 0.5, 1.0, 2.0)
_TOLERANCE = 0.15
ARTIFACT_PATH = os.environ.get("CAMPAIGN_ARTIFACT",
                               "campaign_detection.json")


def test_campaign_dwell_sweep_matches_analytic_curve(benchmark):
    rows = benchmark.pedantic(
        campaign_detection.run,
        kwargs=dict(devices=_DEVICES, horizon=_HORIZON,
                    dwell_fractions=_FRACTIONS, max_workers=4),
        rounds=1, iterations=1)
    for row in rows:
        # Enough infections per cell for the rate to be meaningful.
        assert row["erasmus_infections"] > 100
        analytic = detection_probability(row["dwell_s"], 60.0)
        assert abs(row["erasmus_detection_rate"] - analytic) < _TOLERANCE, \
            f"dwell {row['dwell_s']}: rate {row['erasmus_detection_rate']}" \
            f" vs analytic {analytic}"
    by_fraction = {row["dwell_over_tm"]: row for row in rows}
    # Figure 1's shape: ERASMUS saturates once dwell > T_M ...
    assert by_fraction[2.0]["erasmus_detection_rate"] > 0.95
    assert by_fraction[1.0]["erasmus_detection_rate"] > 0.85
    # ... while on-demand RA stays near zero for short dwells.
    assert by_fraction[0.25]["ondemand_detection_rate"] < 0.15
    assert by_fraction[0.5]["ondemand_detection_rate"] < 0.15
    # And ERASMUS dominates the baseline everywhere.
    for row in rows:
        assert row["erasmus_detection_rate"] > \
            row["ondemand_detection_rate"]
    benchmark.extra_info["erasmus_rates"] = [
        row["erasmus_detection_rate"] for row in rows]
    benchmark.extra_info["ondemand_rates"] = [
        row["ondemand_detection_rate"] for row in rows]


def flagship(devices: int = 1000,
             horizon: float = 3600.0,
             seed: int = 42) -> Scenario:
    """The headline cell: 1k devices, mobility, fault injection.

    Mobile malware sweeps a 1000-device fleet collected over the
    swarm-relay transport while partition-and-merge mobility splits the
    swarm into islands, and the verifier's store crashes mid-round —
    the campaign must recover via the durable-verifier restart path.
    """
    return Scenario(
        name="flagship-1k", devices=devices, horizon=horizon,
        measurement_interval=60.0, collection_interval=600.0,
        malware="mobile", dwell=120.0, arrival_rate=1.0 / 900.0,
        victim_fraction=0.25,
        transport="swarm-relay", mobility="partition-merge",
        partition_period=600.0, merged_fraction=0.5,
        mobility_area=400.0, store_crash_round=2, seed=seed)


def test_flagship_1k_campaign_with_faults(benchmark):
    scenario = flagship(devices=1000, horizon=3600.0)
    result = benchmark.pedantic(run_scenario, args=(scenario,),
                                rounds=1, iterations=1)
    row = result.to_row()
    # The cell really ran at fleet scale with the whole stack engaged:
    assert result.scenario.devices == 1000
    assert result.detection.total_infections > 200
    assert result.recovered_rounds == 1          # store crash + recovery
    lost = sum(stats.responses_lost for stats in result.rounds)
    assert lost > 0                              # partitions really bit
    # Dwell 2x T_M: despite partitions the majority is still caught.
    assert result.detection.detection_rate > 0.4
    benchmark.extra_info["detection_rate"] = \
        result.detection.detection_rate
    benchmark.extra_info["infections"] = result.detection.total_infections
    benchmark.extra_info["responses_lost"] = lost

    # One artifact for CI: the flagship cell plus a compact sweep.
    sweep = CampaignRunner(
        campaign_detection.build_grid(devices=60, horizon=2 * 3600.0,
                                      dwell_fractions=_FRACTIONS),
        name="campaign-detection", max_workers=4)
    sweep.run()
    sweep.results.append(result)
    sweep.write_artifact(ARTIFACT_PATH)
    assert json.load(open(ARTIFACT_PATH))["cell_count"] == \
        2 * len(_FRACTIONS) + 1


def test_campaign_engine_overhead_vs_clean_round(benchmark):
    """The runner's orchestration must stay cheap next to the fleet work."""
    devices, horizon = 200, 1800.0

    def clean_fleet_round() -> float:
        profile = DeviceProfile.smartplus(
            application_size=256, measurement_interval=60.0,
            collection_interval=600.0, buffer_slots=12)
        started = time.perf_counter()
        with Fleet.provision(profile, devices,
                             master_secret=b"overhead-baseline") as fleet:
            for collection_time in (600.0, 1200.0, 1800.0):
                fleet.run_until(collection_time)
                fleet.collect_all()
        return time.perf_counter() - started

    baseline = min(clean_fleet_round() for _ in range(3))
    scenario = Scenario(name="overhead", devices=devices, horizon=horizon,
                        malware="none", dwell=None, seed=1)
    result = benchmark.pedantic(run_scenario, args=(scenario,),
                                rounds=1, iterations=1)
    assert result.detection.total_infections == 0
    overhead = result.wall_seconds / baseline
    benchmark.extra_info["clean_round_seconds"] = baseline
    benchmark.extra_info["campaign_cell_seconds"] = result.wall_seconds
    benchmark.extra_info["overhead_ratio"] = overhead
    # Identical fleet work, so the engine may add bookkeeping only —
    # generous bound so loaded CI machines never flake.
    assert overhead < 3.0
