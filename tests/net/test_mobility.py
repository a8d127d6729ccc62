"""Tests for the random-waypoint mobility model."""

import pytest

from repro.net.mobility import RandomWaypointMobility


NAMES = [f"dev{i}" for i in range(12)]


def position(mobility, name):
    """Current (x, y) of one device or pinned anchor."""
    state = mobility._positions.get(name) or mobility._pinned[name]
    return (state.x, state.y)


def group_of(model, name):
    """Index of the partition group one device belongs to."""
    return next(index for index, group in enumerate(model.groups)
                if name in group)


def test_static_swarm_topology_is_stable():
    mobility = RandomWaypointMobility(NAMES, area_size=50.0, radio_range=30.0,
                                      speed=0.0, seed=1)
    first = {(l.node_a, l.node_b) for l in mobility.links_at(0.0)}
    later = {(l.node_a, l.node_b) for l in mobility.links_at(100.0)}
    assert first == later
    assert first  # dense deployment: some links must exist


def test_mobile_swarm_topology_changes():
    mobility = RandomWaypointMobility(NAMES, area_size=100.0, radio_range=25.0,
                                      speed=5.0, seed=2)
    first = {(l.node_a, l.node_b) for l in mobility.links_at(0.0)}
    later = {(l.node_a, l.node_b) for l in mobility.links_at(60.0)}
    assert first != later


def test_positions_stay_in_area():
    mobility = RandomWaypointMobility(NAMES, area_size=40.0, radio_range=10.0,
                                      speed=3.0, seed=3)
    for time in (0.0, 10.0, 50.0, 200.0):
        mobility.links_at(time)
        for name in NAMES:
            x, y = position(mobility, name)
            assert 0.0 <= x <= 40.0
            assert 0.0 <= y <= 40.0


def test_links_are_symmetric_unit_disc():
    mobility = RandomWaypointMobility(NAMES, area_size=60.0, radio_range=20.0,
                                      speed=0.0, seed=4)
    links = mobility.links_at(0.0)
    for link in links:
        ax, ay = position(mobility, link.node_a)
        bx, by = position(mobility, link.node_b)
        assert ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 <= 20.0 + 1e-9


def test_time_cannot_move_backwards():
    mobility = RandomWaypointMobility(NAMES, speed=1.0, seed=5)
    mobility.links_at(10.0)
    with pytest.raises(ValueError):
        mobility.links_at(5.0)


def links_set(mobility, time):
    return {(l.node_a, l.node_b) for l in mobility.links_at(time)}


def test_fork_is_independent():
    mobility = RandomWaypointMobility(NAMES, speed=3.0, seed=13)
    mobility.links_at(10.0)
    fork = mobility.fork()
    assert links_set(fork, 10.0) == links_set(mobility, 10.0)
    fork.links_at(50.0)  # advancing the fork must not advance the
    mobility.links_at(11.0)  # original past its own clock (would raise)


def test_fork_preserves_subclass_dynamics():
    """fork() must clone the subclass, not flatten it to the base model."""

    class FrozenSwarm(RandomWaypointMobility):
        def _advance(self, elapsed):
            pass  # custom dynamics: nobody ever moves

    mobility = FrozenSwarm(NAMES, area_size=80.0, radio_range=25.0,
                           speed=5.0, seed=17)
    fork = mobility.fork()
    assert type(fork) is FrozenSwarm
    assert links_set(fork, 100.0) == links_set(mobility, 100.0)


def test_pinned_anchor_joins_the_geometric_graph():
    mobility = RandomWaypointMobility(["roamer"], area_size=50.0,
                                      radio_range=80.0, speed=0.0, seed=14)
    mobility.pin("gateway", 25.0, 25.0)
    assert mobility.pinned_names() == ["gateway"]
    assert "gateway" not in mobility.device_names()
    assert position(mobility, "gateway") == (25.0, 25.0)
    # Radio range covers the whole area: the link must exist.
    assert {"gateway"} <= {name for link in mobility.links_at(0.0)
                           for name in link.endpoints()}


def test_pin_rejects_duplicates_and_out_of_area_positions():
    mobility = RandomWaypointMobility(NAMES, area_size=50.0, seed=15)
    mobility.pin("gw", 10.0, 10.0)
    with pytest.raises(ValueError):
        mobility.pin("gw", 20.0, 20.0)
    with pytest.raises(ValueError):
        mobility.pin(NAMES[0], 20.0, 20.0)
    with pytest.raises(ValueError):
        mobility.pin("outside", 60.0, 10.0)


def test_grid_candidate_search_matches_all_pairs_scan():
    """The bucketed links_at must equal the brute-force O(n^2) scan."""
    import math

    mobility = RandomWaypointMobility([f"n{i}" for i in range(40)],
                                      area_size=90.0, radio_range=17.0,
                                      speed=2.5, seed=16)
    mobility.pin("anchor", 45.0, 45.0)
    for time in (0.0, 7.0, 31.0):
        links = [(l.node_a, l.node_b) for l in mobility.links_at(time)]
        names = mobility.device_names() + mobility.pinned_names()
        expected = []
        for index, first in enumerate(names):
            for second in names[index + 1:]:
                ax, ay = position(mobility, first)
                bx, by = position(mobility, second)
                if math.hypot(ax - bx, ay - by) <= 17.0:
                    expected.append((first, second))
        assert links == expected


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RandomWaypointMobility([], speed=1.0)
    with pytest.raises(ValueError):
        RandomWaypointMobility(NAMES, area_size=0.0)
    with pytest.raises(ValueError):
        RandomWaypointMobility(NAMES, speed=-1.0)


class TestPartitionMergeMobility:
    def _model(self, **overrides):
        from repro.net.mobility import PartitionMergeMobility
        parameters = dict(device_names=[f"dev{i}" for i in range(10)],
                          groups=2, period=100.0, merged_fraction=0.5)
        parameters.update(overrides)
        return PartitionMergeMobility(**parameters)

    def test_cycle_starts_partitioned_then_merges(self):
        model = self._model()
        assert not model.merged_at(0.0)
        assert not model.merged_at(49.0)
        assert model.merged_at(50.0)
        assert model.merged_at(99.0)
        assert not model.merged_at(100.0)  # next cycle

    def test_partitioned_links_stay_inside_groups(self):
        model = self._model()
        for link in model.links_at(10.0):
            assert group_of(model, link.node_a) == group_of(model, link.node_b)

    def test_merged_links_bridge_adjacent_groups(self):
        model = self._model(groups=3)
        partitioned = {(l.node_a, l.node_b) for l in model.links_at(10.0)}
        merged = {(l.node_a, l.node_b) for l in model.links_at(60.0)}
        bridges = merged - partitioned
        assert len(bridges) == 2  # chain of 3 groups: 2 bridge links
        for node_a, node_b in bridges:
            assert group_of(model, node_a) != group_of(model, node_b)

    def test_pinned_gateway_attaches_to_group_zero(self):
        model = self._model()
        model.pin("verifier", 50.0, 50.0)
        assert model.pinned_names() == ["verifier"]
        links = model.links_at(0.0)
        gateway = [l for l in links
                   if "verifier" in (l.node_a, l.node_b)]
        assert len(gateway) == 1
        other = gateway[0].node_b if gateway[0].node_a == "verifier" \
            else gateway[0].node_a
        assert group_of(model, other) == 0

    def test_pin_validation(self):
        model = self._model()
        with pytest.raises(ValueError, match="already part"):
            model.pin("dev0", 1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            model.pin("verifier", -5.0, 1.0)

    def test_single_group_always_merged(self):
        model = self._model(groups=1)
        assert model.merged_at(0.0) and model.merged_at(10.0)

    def test_merged_fraction_extremes(self):
        assert self._model(merged_fraction=1.0).merged_at(0.0)
        assert not self._model(merged_fraction=0.0).merged_at(99.0)

    def test_fork_is_independent_and_identical(self):
        model = self._model()
        model.pin("verifier", 10.0, 10.0)
        clone = model.fork()
        assert clone.pinned_names() == ["verifier"]
        assert {(l.node_a, l.node_b) for l in clone.links_at(60.0)} == \
            {(l.node_a, l.node_b) for l in model.links_at(60.0)}
        clone.pin("extra", 20.0, 20.0)
        assert model.pinned_names() == ["verifier"]

    def test_invalid_parameters_rejected(self):
        from repro.net.mobility import PartitionMergeMobility
        with pytest.raises(ValueError):
            PartitionMergeMobility([])
        with pytest.raises(ValueError):
            self._model(groups=0)
        with pytest.raises(ValueError):
            self._model(period=0.0)
        with pytest.raises(ValueError):
            self._model(merged_fraction=1.5)
        with pytest.raises(ValueError):
            self._model(area_size=-1.0)
