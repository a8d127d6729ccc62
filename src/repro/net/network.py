"""The network: nodes, links, routing and event-driven delivery."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, Iterable, List, Optional, Set

from repro.net.link import Link
from repro.net.node import NetworkNode
from repro.net.packet import Packet
from repro.sim.engine import SimulationEngine


def _shortest_paths(adjacency: Dict[str, Dict[str, Link]],
                    source: str) -> Dict[str, List[str]]:
    """Dijkstra by link latency: the path from ``source`` to each node.

    Ties resolve deterministically: equal tentative distances leave
    the heap in push order, and a path is replaced only by a strictly
    shorter one, so among equal-latency routes the first one reached
    through the insertion-ordered adjacency wins (the order
    ``networkx.single_source_dijkstra_path`` resolves them in).
    """
    settled: Set[str] = set()
    tentative: Dict[str, float] = {source: 0}
    paths: Dict[str, List[str]] = {source: [source]}
    pushes = itertools.count()
    fringe = [(0, next(pushes), source)]
    while fringe:
        distance, _, node = heapq.heappop(fringe)
        if node in settled:
            continue
        settled.add(node)
        for neighbour, link in adjacency[node].items():
            if neighbour in settled:
                continue
            candidate = distance + link.latency
            if neighbour not in tentative or candidate < tentative[neighbour]:
                tentative[neighbour] = candidate
                heapq.heappush(fringe, (candidate, next(pushes), neighbour))
                paths[neighbour] = paths[node] + [neighbour]
    return paths


class Network:
    """A topology of nodes and links with shortest-path packet delivery.

    Packets traverse the current shortest path hop by hop; each hop adds
    the link's transfer delay and may drop the packet.  Topology changes
    (mobility) simply rewire the underlying graph — packets already "in
    flight" on a removed link are lost, which is exactly the behaviour
    that breaks on-demand swarm attestation in high-mobility settings.

    :attr:`adjacency` is the undirected graph as insertion-ordered
    ``{node: {neighbour: link}}``; each link appears under both of its
    endpoints.
    """

    def __init__(self, engine: SimulationEngine, seed: int = 0) -> None:
        self.engine = engine
        self.adjacency: Dict[str, Dict[str, Link]] = {}
        self._nodes: Dict[str, NetworkNode] = {}
        self._random = random.Random(seed)
        # Shortest-path trees cached per topology version: one Dijkstra
        # from a queried source serves every destination (and, the graph
        # being undirected, the reverse direction too), so a rewired
        # swarm pays one route computation per rewire rather than one
        # per packet.
        self._topology_version = 0
        self._path_cache: Dict[str, Dict[str, list]] = {}
        self._path_cache_version = -1
        self.delivered_packets = 0
        self.dropped_packets = 0
        self.unroutable_packets = 0
        #: Packets admitted but not yet delivered or dropped.  Lets
        #: callers draining the engine stop as soon as nothing they are
        #: waiting for can still arrive.
        self.in_flight_packets = 0
        #: Event hooks for callers that account packets by category
        #: rather than globally (e.g. a transport tracking which
        #: collection *round* each in-flight packet belongs to).
        #: ``on_packet_admitted`` fires when :meth:`transmit` accepts a
        #: packet; ``on_packet_settled`` fires exactly once per admitted
        #: packet with the outcome ``"delivered"`` or ``"dropped"``.
        self.on_packet_admitted: list = []
        self.on_packet_settled: list = []

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_node(self, node: NetworkNode) -> NetworkNode:
        """Attach a node to the network."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        node.network = self
        self.adjacency[node.name] = {}
        return node

    def node(self, name: str) -> NetworkNode:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise KeyError(f"no node named {name!r}") from exc

    def remove_node(self, name: str) -> None:
        """Detach a node and every link incident to it.

        Packets already in flight towards the removed node are lost and
        settled as dropped, the same way a removed link loses them.
        """
        node = self._nodes.pop(name, None)
        if node is None:
            return
        node.network = None
        for neighbour in self.adjacency.pop(name):
            if neighbour != name:
                del self.adjacency[neighbour][name]
        self._topology_version += 1

    def add_link(self, link: Link) -> Link:
        """Connect two existing nodes with a link."""
        for endpoint in link.endpoints():
            if endpoint not in self._nodes:
                raise KeyError(f"link endpoint {endpoint!r} is not a node")
        self.adjacency[link.node_a][link.node_b] = link
        self.adjacency[link.node_b][link.node_a] = link
        self._topology_version += 1
        return link

    def link_between(self, first: str, second: str) -> Optional[Link]:
        """The link joining two nodes, if any."""
        neighbours = self.adjacency.get(first)
        return None if neighbours is None else neighbours.get(second)

    def set_links(self, links: Iterable[Link]) -> None:
        """Replace the entire set of links (used by mobility models).

        Packets in flight keep their admitted state across the rewire:
        a packet whose next hop survived keeps travelling, a packet
        whose next hop was removed is dropped — and settled exactly once
        — when it reaches the gap.  No packet is ever re-admitted or
        settled twice, however many rewires happen while it travels.
        """
        for neighbours in self.adjacency.values():
            neighbours.clear()
        self._topology_version += 1
        for link in links:
            self.add_link(link)

    # ------------------------------------------------------------------
    # Packet delivery
    # ------------------------------------------------------------------
    def path(self, source: str, destination: str) -> Optional[list[str]]:
        """Current shortest path (by link latency), or ``None``.

        Routes come from a per-source shortest-path tree cached until
        the next topology change; a tree cached for either endpoint
        answers both directions (links are bidirectional with symmetric
        latency), so one collection round's worth of request *and*
        response packets costs a single Dijkstra run.
        """
        if source == destination:
            return [source] if source in self.adjacency else None
        if self._path_cache_version != self._topology_version:
            self._path_cache = {}
            self._path_cache_version = self._topology_version
        tree = self._path_cache.get(source)
        if tree is None:
            reverse_tree = self._path_cache.get(destination)
            if reverse_tree is not None:
                reverse = reverse_tree.get(source)
                return list(reversed(reverse)) if reverse is not None \
                    and len(reverse) >= 2 else None
            if source not in self.adjacency:
                return None
            tree = _shortest_paths(self.adjacency, source)
            self._path_cache[source] = tree
        route = tree.get(destination)
        return list(route) if route is not None and len(route) >= 2 else None

    def transmit(self, packet: Packet) -> bool:
        """Send a packet along the current shortest path.

        Returns ``True`` when the packet was admitted (a route existed at
        send time); delivery itself is scheduled on the event engine and
        may still fail mid-path due to loss or link removal.
        """
        route = self.path(packet.source, packet.destination)
        if route is None or len(route) < 2:
            self.unroutable_packets += 1
            return False
        self.in_flight_packets += 1
        for listener in self.on_packet_admitted:
            listener(packet)
        self._schedule_hop(packet, route, hop_index=0, time=self.engine.now)
        return True

    def _settle(self, packet: Packet, outcome: str) -> None:
        """Retire one admitted packet and notify settlement listeners."""
        self.in_flight_packets -= 1
        for listener in self.on_packet_settled:
            listener(packet, outcome)

    def _schedule_hop(self, packet: Packet, route: list[str], hop_index: int,
                      time: float) -> None:
        current, following = route[hop_index], route[hop_index + 1]
        link = self.link_between(current, following)
        if link is None:
            # The topology changed underneath the packet: it is lost.
            self.dropped_packets += 1
            self._settle(packet, "dropped")
            return
        if self._random.random() < link.loss_probability:
            self.dropped_packets += 1
            self._settle(packet, "dropped")
            return
        arrival = time + link.transfer_delay(packet)

        def _arrive() -> None:
            if hop_index + 2 >= len(route):
                destination = self._nodes.get(route[-1])
                if destination is None:
                    # The destination left the network mid-flight.
                    self.dropped_packets += 1
                    self._settle(packet, "dropped")
                    return
                self.delivered_packets += 1
                # Count delivery before the handler runs: the handler
                # may transmit a reply, which is a new in-flight packet.
                self._settle(packet, "delivered")
                destination.deliver(packet.forwarded(route[-1]),
                                    self.engine.now)
            else:
                self._schedule_hop(packet, route, hop_index + 1,
                                   self.engine.now)

        self.engine.schedule(arrival, _arrive)
