"""Tests for packets, links and the simulated network."""

import pytest

from repro.net import Link, Network, NetworkNode, Packet
from repro.net.packet import HEADER_OVERHEAD_BYTES
from repro.sim import SimulationEngine


def test_packet_size_includes_headers():
    packet = Packet(source="a", destination="b", payload=b"\x00" * 100)
    assert packet.size_bytes == 100 + HEADER_OVERHEAD_BYTES
    forwarded = packet.forwarded("c")
    assert forwarded.hop_count == 1
    assert forwarded.payload == packet.payload


def test_link_transfer_delay():
    link = Link("a", "b", latency=0.01, bandwidth_bps=8_000.0)
    packet = Packet(source="a", destination="b", payload=b"\x00" * 58)
    # 100 bytes on the wire at 8 kbit/s = 0.1 s serialization + 10 ms latency.
    assert link.transfer_delay(packet) == pytest.approx(0.11)


def test_link_parameter_validation():
    with pytest.raises(ValueError):
        Link("a", "b", latency=-1.0)
    with pytest.raises(ValueError):
        Link("a", "b", bandwidth_bps=0.0)
    with pytest.raises(ValueError):
        Link("a", "b", loss_probability=1.5)


def build_network(node_names, links, seed=0):
    engine = SimulationEngine()
    network = Network(engine, seed=seed)
    received = []
    for name in node_names:
        network.add_node(NetworkNode(
            name, on_receive=lambda node, packet, time:
            received.append((node.name, packet.payload, time))))
    for link in links:
        network.add_link(link)
    return engine, network, received


def test_single_hop_delivery():
    engine, network, received = build_network(
        ["verifier", "prover"], [Link("verifier", "prover", latency=0.005)])
    network.node("verifier").send("prover", b"collect 4", kind="collect")
    engine.run()
    assert len(received) == 1
    assert received[0][0] == "prover"
    assert received[0][1] == b"collect 4"
    assert network.delivered_packets == 1


def test_multi_hop_delivery_accumulates_delay():
    engine, network, received = build_network(
        ["a", "b", "c"],
        [Link("a", "b", latency=0.01), Link("b", "c", latency=0.01)])
    network.node("a").send("c", b"payload")
    engine.run()
    assert received[0][0] == "c"
    assert received[0][2] > 0.02


def test_unroutable_packet_is_counted():
    engine, network, received = build_network(["a", "b"], [])
    assert network.node("a").send("b", b"data") is None
    engine.run()
    assert not received
    assert network.unroutable_packets == 1


def test_lossy_link_drops_packets():
    engine, network, received = build_network(
        ["a", "b"], [Link("a", "b", loss_probability=1.0)])
    network.node("a").send("b", b"will be lost")
    engine.run()
    assert not received
    assert network.dropped_packets == 1


def test_link_removed_mid_flight_loses_packet():
    engine, network, received = build_network(
        ["a", "b", "c"],
        [Link("a", "b", latency=0.01), Link("b", "c", latency=0.01)])
    network.node("a").send("c", b"doomed")
    # Remove the second hop before the packet reaches it.
    network.set_links([Link("a", "b", latency=0.01)])
    engine.run()
    assert not received
    assert network.dropped_packets == 1


def test_set_links_rewires_topology():
    engine, network, _received = build_network(
        ["a", "b", "c"], [Link("a", "b")])
    assert network.path("a", "b") == ["a", "b"]
    assert network.path("a", "c") is None
    network.set_links([Link("a", "c"), Link("c", "b")])
    assert network.path("a", "b") == ["a", "c", "b"]
    assert list(network.adjacency["a"]) == ["c"]
    del engine


def test_node_statistics_and_duplicates():
    engine, network, _received = build_network(
        ["a", "b"], [Link("a", "b")])
    network.node("a").send("b", b"x" * 10)
    engine.run()
    assert network.node("a").sent_packets == 1
    assert network.node("b").received_packets == 1
    with pytest.raises(ValueError):
        network.add_node(NetworkNode("a"))
    with pytest.raises(KeyError):
        network.add_link(Link("a", "ghost"))
    with pytest.raises(KeyError):
        network.node("ghost")


def test_packet_admission_and_settlement_listeners():
    engine, network, _received = build_network(
        ["a", "b"], [Link("a", "b")])
    admitted, settled = [], []
    network.on_packet_admitted.append(lambda packet: admitted.append(packet))
    network.on_packet_settled.append(
        lambda packet, outcome: settled.append((packet.kind, outcome)))
    network.node("a").send("b", b"payload", kind="probe")
    assert [packet.kind for packet in admitted] == ["probe"]
    assert settled == []  # in flight until the engine delivers it
    engine.run()
    assert settled == [("probe", "delivered")]
    assert network.in_flight_packets == 0


def test_settlement_listener_reports_drops():
    engine, network, _received = build_network(
        ["a", "b"], [Link("a", "b", loss_probability=1.0)])
    outcomes = []
    network.on_packet_settled.append(
        lambda packet, outcome: outcomes.append(outcome))
    network.node("a").send("b", b"payload")
    engine.run()
    assert outcomes == ["dropped"]
    assert network.in_flight_packets == 0


def settlement_recorder(network):
    admitted, settled = [], []
    network.on_packet_admitted.append(lambda packet: admitted.append(packet))
    network.on_packet_settled.append(
        lambda packet, outcome: settled.append((packet, outcome)))
    return admitted, settled


def test_set_links_mid_flight_drops_and_settles_exactly_once():
    """A packet whose next hop was rewired away settles once, as dropped.

    A hop a packet is already traversing always completes; the drop
    happens when the *next* hop is due and its link is gone.
    """
    engine, network, received = build_network(
        ["a", "b", "c"],
        [Link("a", "b", latency=0.01), Link("b", "c", latency=0.01)])
    admitted, settled = settlement_recorder(network)
    network.node("a").send("c", b"doomed")
    engine.run(until=0.005)  # still on the a->b hop
    network.set_links([Link("a", "b", latency=0.01)])  # b->c removed
    engine.run()
    assert not received
    assert len(admitted) == 1
    assert [(p.destination, outcome) for p, outcome in settled] == \
        [("c", "dropped")]
    assert network.in_flight_packets == 0
    assert network.dropped_packets == 1


def test_set_links_survivors_keep_delivering():
    engine, network, received = build_network(
        ["a", "r1", "r2", "b", "c"],
        [Link("a", "r1", latency=0.01), Link("r1", "b", latency=0.01),
         Link("a", "r2", latency=0.01), Link("r2", "c", latency=0.01)])
    _admitted, settled = settlement_recorder(network)
    network.node("a").send("b", b"lost")
    network.node("a").send("c", b"survives")
    engine.run(until=0.005)  # both packets still on their first hop
    # Rewire: the relay towards b loses its second hop, c's survives.
    network.set_links([Link("a", "r1", latency=0.01),
                       Link("a", "r2", latency=0.01),
                       Link("r2", "c", latency=0.01)])
    engine.run()
    assert [(name, payload) for name, payload, _ in received] == \
        [("c", b"survives")]
    outcomes = {p.destination: outcome for p, outcome in settled}
    assert outcomes == {"b": "dropped", "c": "delivered"}
    assert network.in_flight_packets == 0


def test_repeated_rewires_settle_each_admitted_packet_exactly_once():
    """However many rewires happen in flight, settlement stays 1:1."""
    chain = [Link("a", "b", latency=0.01), Link("b", "c", latency=0.01),
             Link("c", "d", latency=0.01)]
    engine, network, received = build_network(["a", "b", "c", "d"], chain)
    admitted, settled = settlement_recorder(network)
    for index in range(3):
        network.node("a").send("d", f"p{index}".encode())
    # Rewire to the identical topology twice (packets keep travelling),
    # then cut the last hop while they are mid-path: they drop when the
    # missing hop comes due, and never settle a second time.
    engine.run(until=0.005)
    network.set_links(chain)
    engine.run(until=0.012)
    network.set_links(chain)
    engine.run(until=0.015)
    network.set_links(chain[:2])
    engine.run()
    assert not received
    assert len(admitted) == 3
    assert len(settled) == 3  # exactly once each, across four topologies
    assert network.in_flight_packets == 0
    assert network.dropped_packets == 3


def test_remove_node_mid_flight_drops_at_the_gap():
    engine, network, received = build_network(
        ["a", "b"], [Link("a", "b", latency=0.01)])
    _admitted, settled = settlement_recorder(network)
    network.node("a").send("b", b"to nobody")
    network.remove_node("b")
    engine.run()
    assert not received
    assert [outcome for _p, outcome in settled] == ["dropped"]
    assert network.in_flight_packets == 0
    with pytest.raises(KeyError):
        network.node("b")
    network.remove_node("b")  # removing twice is a no-op


def test_path_cache_tracks_topology_changes_both_directions():
    engine, network, _received = build_network(
        ["a", "b", "c"],
        [Link("a", "b", latency=0.01), Link("b", "c", latency=0.01)])
    forward = network.path("a", "c")
    assert forward == ["a", "b", "c"]
    # The reverse direction answers from the same cached tree.
    assert network.path("c", "a") == ["c", "b", "a"]
    network.set_links([Link("a", "b", latency=0.01)])
    assert network.path("a", "c") is None
    network.add_link(Link("a", "c", latency=0.01))
    assert network.path("a", "c") == ["a", "c"]
    del engine


def test_unroutable_packet_is_never_admitted():
    engine, network, _received = build_network(["a", "b"], [])
    admitted = []
    network.on_packet_admitted.append(lambda packet: admitted.append(packet))
    assert not network.node("a").send("b", b"payload")
    assert admitted == []
    assert network.unroutable_packets == 1
    del engine
