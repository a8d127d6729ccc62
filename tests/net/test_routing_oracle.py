"""The in-house router against networkx's Dijkstra, tie for tie.

Runs only where networkx is installed; the package itself never
imports it.  Graphs are seeded random geometric graphs whose link
latencies come from a handful of values, so equal-latency routes are
everywhere and any difference in tie-breaking would show.
"""

import random

import pytest

from repro.net import Link, Network, NetworkNode
from repro.net.network import _shortest_paths
from repro.sim.engine import SimulationEngine

nx = pytest.importorskip("networkx")


def _geometric_links(rng, names, radius):
    """Links between nodes closer than ``radius`` on a coarse grid."""
    positions = {name: (rng.randrange(10), rng.randrange(10))
                 for name in names}
    links = []
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            (x1, y1), (x2, y2) = positions[first], positions[second]
            distance = abs(x1 - x2) + abs(y1 - y2)
            if distance <= radius:
                pair = (first, second) if rng.random() < 0.5 \
                    else (second, first)
                links.append(Link(*pair, latency=0.001 * max(distance, 1)))
    rng.shuffle(links)
    return links


def _assert_routes_match(network, graph):
    for source in network.adjacency:
        expected = nx.single_source_dijkstra_path(
            graph, source, weight=lambda u, v, data: data["link"].latency)
        assert _shortest_paths(network.adjacency, source) == expected


@pytest.mark.parametrize("seed", range(12))
def test_router_matches_networkx_through_rewires_and_removals(seed):
    rng = random.Random(seed)
    names = [f"n{index}" for index in range(rng.randrange(8, 30))]
    network = Network(SimulationEngine())
    for name in names:
        network.add_node(NetworkNode(name))
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for link in _geometric_links(rng, names, radius=4):
        network.add_link(link)
        graph.add_edge(link.node_a, link.node_b, link=link)
    _assert_routes_match(network, graph)

    for _rewire in range(3):
        links = _geometric_links(rng, list(network.adjacency), radius=5)
        network.set_links(links)
        graph.remove_edges_from(list(graph.edges))
        for link in links:
            graph.add_edge(link.node_a, link.node_b, link=link)
        _assert_routes_match(network, graph)
        victim = rng.choice(list(network.adjacency))
        network.remove_node(victim)
        graph.remove_node(victim)
        _assert_routes_match(network, graph)


def test_equal_latency_diamond_takes_the_first_reached_branch():
    network = Network(SimulationEngine())
    graph = nx.Graph()
    for name in "sabt":
        network.add_node(NetworkNode(name))
        graph.add_node(name)
    for first, second in (("s", "b"), ("s", "a"), ("a", "t"), ("b", "t")):
        link = Link(first, second, latency=0.002)
        network.add_link(link)
        graph.add_edge(first, second, link=link)
    assert network.path("s", "t") == ["s", "b", "t"] == \
        nx.dijkstra_path(graph, "s", "t",
                         weight=lambda u, v, data: data["link"].latency)
