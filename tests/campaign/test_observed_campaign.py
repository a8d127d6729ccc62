"""Per-cell campaign observability: forked cells and absorb."""

from repro.campaign import CampaignRunner, Scenario, run_scenario
from repro.obs import NullObservability, Observability


def small(**overrides):
    base = dict(devices=8, horizon=1800.0, measurement_interval=60.0,
                collection_interval=600.0, malware="mobile", dwell=120.0,
                arrival_rate=1 / 600.0, victim_fraction=0.5, seed=3)
    base.update(overrides)
    return Scenario(**base)


def _cells(names):
    return [small(name=name, seed=index + 1)
            for index, name in enumerate(names)]


def test_concurrent_cells_get_disjoint_correctly_parented_trees():
    obs = Observability(seed=7)
    runner = CampaignRunner(_cells(["cell-a", "cell-b"]), max_workers=2,
                            obs=obs)
    results = runner.run()
    obs.close()

    trees = {}
    for result in results:
        assert result.obs is not None
        assert result.obs.cell == result.scenario.name
        rows = result.obs.tracer.export_rows()
        assert rows, "an observed cell produced no spans"
        trees[result.scenario.name] = rows

    # Disjoint: the two cells share no span ids despite identical
    # round/shard paths (the child tracer seeds are forked per cell).
    ids_a = {row["span_id"] for row in trees["cell-a"]}
    ids_b = {row["span_id"] for row in trees["cell-b"]}
    assert not ids_a & ids_b

    # Correctly parented: every non-root span's parent id is a span in
    # the SAME cell's tree, and its path is the parent's path extended.
    for rows in trees.values():
        by_id = {row["span_id"]: row for row in rows}
        children = 0
        for row in rows:
            parent_id = row.get("parent_id")
            if parent_id is None:
                continue
            children += 1
            parent = by_id[parent_id]  # KeyError = cross-cell leak
            assert row["path"].startswith(parent["path"] + "/")
        assert children > 0

    # Each cell ran its three rounds into its own registry...
    for result in results:
        assert result.obs.rounds_total.value() == 3
    # ...and the parent exposition carries them under the cell label.
    text = obs.registry.render()
    assert 'repro_cell_rounds_total{cell="cell-a"} 3' in text
    assert 'repro_cell_rounds_total{cell="cell-b"} 3' in text
    assert obs.campaign_cells_total.value() == 2
    # The parent's own round counter never moved: cells are children.
    assert obs.rounds_total.value() == 0


def test_observed_rows_match_unobserved_rows():
    plain = CampaignRunner(_cells(["a", "b"]))
    plain.run()
    obs = Observability(seed=1)
    watched = CampaignRunner(_cells(["a", "b"]), obs=obs)
    watched.run()
    obs.close()
    # Observability is read-only: the deterministic artifact rows are
    # identical with and without it.
    assert watched.rows() == plain.rows()


def test_null_observability_keeps_the_fast_path():
    null = NullObservability()
    result = run_scenario(small(), obs=null)
    assert result.obs is None  # no child forked, nothing recorded
    assert null.for_cell("x") is null
