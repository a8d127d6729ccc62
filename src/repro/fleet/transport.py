"""Transports: how collection requests reach provers and responses return.

Every transport speaks the canonical wire encoding from
:mod:`repro.core.protocol`, so the *same* fleet-collection code runs:

* in-process (:class:`InProcessTransport`) — direct request/response
  exchange for fast experiments and unit tests;
* over the simulated packet network (:class:`SimulatedNetworkTransport`)
  — every device hangs off the verifier in a star of lossy, latency-
  bearing UDP links, delivery driven by the event engine;
* over a swarm relay tree (:class:`SwarmRelayTransport`) — devices
  forward each other's traffic towards a gateway, LISA-α style
  (Section 6), so most devices are several hops from the verifier;
* over real operating-system sockets (:class:`SocketTransport`) —
  requests and responses travel as UDP datagrams on the loopback
  interface through a background :mod:`asyncio` event loop, with a TCP
  fallback for responses too large for one datagram, so collection
  exercises genuine kernel I/O rather than an in-process call.

The contract is deliberately tiny: ``register`` a provisioned device,
then exchange a batch of encoded requests for encoded responses
(``None`` marks a device that never answered — lost packets,
partitions, or a dead device).

:class:`Transport` is the only seam.  Collection rounds await its
:meth:`~Transport.exchange_many_async`, whose default runs the
synchronous ``exchange_many`` inline; the simulated network and the
socket transport override it with a native awaitable exchange, so any
number of collection rounds can be in flight over one transport at
once, each overlapping simulation progress or socket I/O.
"""

from __future__ import annotations

import abc
import asyncio
import itertools
import socket
import struct
import threading
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core.protocol import (
    CollectRequest,
    OnDemandRequest,
    ProtocolDecodeError,
    decode_request,
)
from repro.core.prover import ErasmusProver
from repro.fleet.profiles import ProvisionedDevice
from repro.net.link import Link
from repro.net.mobility import MobilityModel
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.sim.engine import SimulationEngine


def serve_request(prover: ErasmusProver, payload: bytes,
                  time: Optional[float] = None) -> bytes:
    """Decode one request, serve it on the prover, encode the response.

    This is the prover-side dispatch shared by every transport: plain
    collections go to :meth:`ErasmusProver.serve_collect`, which joins
    the stored wire-form records, ERASMUS+OD requests to
    :meth:`ErasmusProver.handle_ondemand`.
    """
    request = decode_request(payload)
    if isinstance(request, CollectRequest):
        return prover.serve_collect(request)
    assert isinstance(request, OnDemandRequest)
    return prover.handle_ondemand(request, time=time).encode()


class Transport(abc.ABC):
    """Bidirectional request/response channel between verifier and fleet."""

    #: Short name used in experiment tables and traces.
    name = "abstract"

    #: Engine whose clock stamps collection times (``None`` when the
    #: transport has no virtual clock).
    engine: Optional[SimulationEngine] = None

    #: Responses that arrived after their round had finished, rejected
    #: rather than misattributed (stays 0 where none can straggle in).
    stale_responses_rejected = 0

    @abc.abstractmethod
    def register(self, device: ProvisionedDevice) -> None:
        """Attach one provisioned device to this transport."""

    @abc.abstractmethod
    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        """Send one encoded request; return the encoded response or ``None``."""

    def exchange_many(self, requests: Mapping[str, bytes]
                      ) -> Dict[str, Optional[bytes]]:
        """Exchange a batch of requests (default: sequential round-trips).

        Transports with real in-flight concurrency (the packet network)
        override this to launch every request before waiting for any
        response.
        """
        return {device_id: self.exchange(device_id, payload)
                for device_id, payload in requests.items()}

    async def exchange_many_async(self, requests: Mapping[str, bytes]
                                  ) -> Dict[str, Optional[bytes]]:
        """Awaitable exchange: the seam every collection round awaits.

        The default runs :meth:`exchange_many` inline on the event loop:
        a synchronous transport either answers at once (in-process) or
        drives a single-threaded engine that must not be stepped from
        two places at once, so a worker thread would be unsound, not
        faster.  Transports with real in-flight concurrency override
        this to yield while their responses are outstanding.
        """
        return self.exchange_many(requests)


class InProcessTransport(Transport):
    """Zero-latency transport calling provers directly (through the codec).

    Requests and responses still pass through the canonical byte
    encoding, so anything that works here works unchanged over the
    simulated network.
    """

    name = "in-process"

    def __init__(self, engine: Optional[SimulationEngine] = None) -> None:
        self.engine = engine
        self._provers: Dict[str, ErasmusProver] = {}

    def register(self, device: ProvisionedDevice) -> None:
        if device.device_id in self._provers:
            raise ValueError(f"duplicate device id {device.device_id!r}")
        self._provers[device.device_id] = device.prover

    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        try:
            prover = self._provers[device_id]
        except KeyError as exc:
            raise KeyError(f"device {device_id!r} is not registered") from exc
        time = self.engine.now if self.engine is not None else None
        try:
            return serve_request(prover, payload, time=time)
        except ProtocolDecodeError:
            # A prover keeps silence on garbage rather than crashing the
            # collection round; the verifier reports the device NO_DATA.
            return None


#: Node name the verifier end of a networked transport uses.
VERIFIER_NODE = "verifier"


class _PendingRound:
    """In-flight state of one collection round over the packet network.

    A round is *settled* once every expected response has arrived or
    once none of its packets is on the wire anymore (lost packets are
    not retransmitted, so a missing response can then never arrive).
    ``outstanding`` counts this round's admitted-but-unsettled packets,
    maintained from the network's packet-settlement events — which is
    what lets any number of rounds share one network without waiting on
    each other's traffic.
    """

    __slots__ = ("round_id", "expected", "responses", "deadline",
                 "outstanding", "launched")

    def __init__(self, round_id: str, expected, deadline: float) -> None:
        self.round_id = round_id
        self.expected = expected
        self.responses: Dict[str, bytes] = {}
        self.deadline = deadline
        self.outstanding = 0
        #: Guards settlement checks until every request has been sent
        #: (``outstanding`` is transiently 0 mid-launch).
        self.launched = False

    @property
    def settled(self) -> bool:
        if not self.launched:
            return False
        return len(self.responses) >= len(self.expected) or \
            self.outstanding == 0


class SimulatedNetworkTransport(Transport):
    """Collections over the :mod:`repro.net` packet network.

    Devices are joined to the verifier in a star topology of UDP-style
    links; requests and responses travel as packets through the event
    engine, accumulating latency, serialization delay and (optionally)
    loss.  ``exchange_many`` launches the whole batch before draining
    the engine, so per-device round-trips overlap exactly as they would
    on a real network.

    Delivery is event-driven per round: every launched round tracks its
    own outstanding packets through the network's settlement events, so
    several rounds can be in flight at once — the awaitable
    :meth:`exchange_many_async` exploits that to overlap collection
    rounds with each other and with simulation progress, while the
    synchronous :meth:`exchange_many` simply drives its single round to
    settlement.  Responses are round-tagged; an answer that straggles
    in after its round timed out is rejected and counted in
    :attr:`stale_responses_rejected`, never credited to a later round.
    """

    name = "simulated-network"

    def __init__(self, engine: SimulationEngine, latency: float = 0.005,
                 bandwidth_bps: float = 10_000_000.0,
                 loss_probability: float = 0.0,
                 round_timeout: float = 30.0, seed: int = 0) -> None:
        if round_timeout <= 0:
            raise ValueError("round timeout must be positive")
        self.engine = engine
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_probability = loss_probability
        self.round_timeout = round_timeout
        self.network = Network(engine, seed=seed)
        self.network.add_node(
            NetworkNode(VERIFIER_NODE, on_receive=self._verifier_receives))
        self.network.on_packet_admitted.append(self._packet_admitted)
        self.network.on_packet_settled.append(self._packet_settled)
        self._provers: Dict[str, ErasmusProver] = {}
        # Monotonic round counter carried in the packet kind so that a
        # response still in flight when a round times out cannot be
        # mistaken for an answer to a *later* round's request.
        self._round = 0
        self._pending: Dict[str, _PendingRound] = {}
        #: Responses that arrived after their round had already settled
        #: or timed out; rejected rather than misattributed.
        self.stale_responses_rejected = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _attachment_point(self, device_id: str) -> Optional[str]:
        """Node the new device links to (the verifier, in a star).

        A pure query: implementations must not mutate transport state —
        commit bookkeeping belongs in :meth:`_registered`, which only
        runs once the registration has fully succeeded.  ``None`` means
        the device gets no static link (mobility-driven topologies wire
        links per round instead).
        """
        del device_id
        return VERIFIER_NODE

    def _registered(self, device_id: str) -> None:
        """Commit hook: the device is fully registered (base: nothing)."""

    def register(self, device: ProvisionedDevice) -> None:
        """Attach one device: node, static link (if any), prover dispatch.

        Transactional: every fallible step runs before any transport
        state is committed, and a failure rolls the added node back, so
        a failed registration leaves the topology — and the parent
        slots of every later registration — exactly as they were.
        """
        device_id = device.device_id
        if device_id in self._provers:
            raise ValueError(f"duplicate device id {device_id!r}")
        attachment = self._attachment_point(device_id)
        self.network.add_node(
            NetworkNode(device_id, on_receive=self._prover_receives))
        if attachment is not None:
            try:
                self.network.add_link(Link(
                    attachment, device_id,
                    latency=self.latency, bandwidth_bps=self.bandwidth_bps,
                    loss_probability=self.loss_probability))
            except BaseException:
                self.network.remove_node(device_id)
                raise
        self._provers[device_id] = device.prover
        self._registered(device_id)

    # ------------------------------------------------------------------
    # Packet handlers
    # ------------------------------------------------------------------
    def _prover_receives(self, node: NetworkNode, packet, time: float) -> None:
        prover = self._provers[node.name]
        try:
            response = serve_request(prover, packet.payload, time=time)
        except ProtocolDecodeError:
            return
        # Echo the request's round tag so the verifier can discard
        # responses that arrive after their round already timed out.
        round_tag = packet.kind.rpartition("/")[2]
        node.send(VERIFIER_NODE, response,
                  kind=f"attestation-response/{round_tag}")

    def _verifier_receives(self, _node: NetworkNode, packet,
                           time: float) -> None:
        pending = self._pending.get(packet.kind.rpartition("/")[2])
        if pending is None or time > pending.deadline:
            # The response's round already settled or timed out; with
            # overlapping rounds, crediting it anywhere would hand one
            # round another round's (older) history.  The deadline
            # check matters when a *concurrent* driver (another round,
            # an engine drain) steps a late delivery while this round
            # is still registered: the synchronous drive would have
            # stopped before ever stepping it, and the async path must
            # reject it the same way.
            self.stale_responses_rejected += 1
            return
        pending.responses[packet.source] = packet.payload

    def _packet_admitted(self, packet) -> None:
        pending = self._pending.get(packet.kind.rpartition("/")[2])
        if pending is not None:
            pending.outstanding += 1

    def _packet_settled(self, packet, _outcome: str) -> None:
        pending = self._pending.get(packet.kind.rpartition("/")[2])
        if pending is not None:
            pending.outstanding -= 1

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def _prepare_round(self) -> None:
        """Hook before a round launches (mobility rewires the topology)."""

    def _begin_round(self, requests: Mapping[str, bytes]) -> _PendingRound:
        """Validate, launch every request, and register the round."""
        for device_id in requests:
            if device_id not in self._provers:
                raise KeyError(f"device {device_id!r} is not registered")
        self._prepare_round()
        self._round += 1
        pending = _PendingRound(str(self._round), tuple(requests),
                                deadline=self.engine.now + self.round_timeout)
        # Registered before the first send so the admission/settlement
        # hooks attribute the request packets to this round.
        self._pending[pending.round_id] = pending
        verifier_node = self.network.node(VERIFIER_NODE)
        kind = f"attestation-request/{pending.round_id}"
        for device_id, payload in requests.items():
            verifier_node.send(device_id, payload, kind=kind)
        pending.launched = True
        return pending

    def _finish_round(self, pending: _PendingRound
                      ) -> Dict[str, Optional[bytes]]:
        """Deregister the round; anything still in flight is now stale."""
        del self._pending[pending.round_id]
        return {device_id: pending.responses.get(device_id)
                for device_id in pending.expected}

    def _drive(self, pending: _PendingRound, max_events: int) -> bool:
        """Step the engine for this round; False once it cannot progress.

        The virtual clock stops at the last relevant delivery instead of
        jumping to the timeout: once the round's own packets have all
        settled, a missing response can never arrive (lost packets are
        not retransmitted), and events past the round's deadline belong
        to whoever waits for them.
        """
        for _ in range(max_events):
            if pending.settled:
                return False
            next_time = self.engine.peek_time()
            if next_time is None or next_time > pending.deadline:
                return False
            self.engine.step()
        return True

    # ------------------------------------------------------------------
    # Exchange
    # ------------------------------------------------------------------
    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        return self.exchange_many({device_id: payload})[device_id]

    def exchange_many(self, requests: Mapping[str, bytes]
                      ) -> Dict[str, Optional[bytes]]:
        pending = self._begin_round(requests)
        try:
            while self._drive(pending, max_events=1024):
                pass
        finally:
            # Deregister even when a stepped event handler raises:
            # a leaked round would swallow late responses forever
            # (crediting them to a dead round instead of counting them
            # stale) and pin their payloads in memory.
            responses = self._finish_round(pending)
        return responses

    async def exchange_many_async(self, requests: Mapping[str, bytes]
                                  ) -> Dict[str, Optional[bytes]]:
        """Awaitable exchange: lets rounds overlap on one network.

        Any number of these coroutines can be in flight concurrently:
        one of them drives the engine a few events at a time while the
        others yield,
        each resolving as soon as *its own* packets settle or its
        deadline passes — rounds never barrier on each other's traffic.
        """
        pending = self._begin_round(requests)
        try:
            # Yield once between launch and drive: concurrent rounds
            # launched in the same wall-clock instant then inject their
            # requests at the same *virtual* instant too, before any of
            # them starts draining the engine — the async equivalent of
            # "launch the whole batch, then wait".
            await asyncio.sleep(0)
            while not pending.settled:
                if self.engine.now > pending.deadline:
                    break  # another driver ran the clock past our timeout
                # Concurrent rounds simply take turns driving: the
                # engine pops each event exactly once, and whoever
                # steps delivers everyone's packets.
                progressed = self._drive(pending, max_events=16)
                if not progressed and not pending.settled:
                    # The next event (if any) lies beyond our deadline,
                    # and the earliest event is the earliest *anything*
                    # — including our responses — can happen: timed out.
                    break
                await asyncio.sleep(0)
        finally:
            responses = self._finish_round(pending)
        return responses


class SwarmRelayTransport(SimulatedNetworkTransport):
    """Collections relayed hop by hop through a swarm (Section 6).

    Without a mobility model, devices attach to the gateway in a
    ``fanout``-ary tree in registration order; packets to and from deep
    devices are forwarded by the intermediate devices.  Because an
    ERASMUS collection is just a buffer read, the extra hops add only
    network delay — the property that keeps collections viable in
    swarms where on-demand attestation already fails.

    With ``mobility`` set, the relay topology is no longer a fixed
    tree: before every collection round the transport samples
    ``mobility.links_at(engine.now)`` and rewires the network to the
    geometric graph the devices actually form at that instant, with the
    verifier pinned as a gateway inside the mobility area — into a
    private fork of the model when pinning is needed, so the caller's
    instance is never mutated (see :attr:`mobility` for the model the
    transport actually samples).  Devices
    outside the gateway's connected component at round time simply
    never answer — they surface as lost responses in the round's
    :class:`~repro.fleet.sinks.RoundStats`, not as errors — and
    :meth:`depth_of` / :meth:`is_reachable` become time-dependent
    queries against the topology of the *latest* rewire.  At
    ``speed=0`` the model degenerates to a static random geometric
    graph, so every round sees the same topology and the same coverage.

    ``rewire_interval`` additionally re-samples the topology on a
    periodic engine timer while rounds are in flight, so multi-hop
    responses can lose their path mid-round — the regime where
    on-demand swarm protocols fall apart while the near-instant
    ERASMUS collection survives.

    Mobile links inherit their latency and bandwidth from the mobility
    model (``link_latency`` / ``link_bandwidth_bps`` on
    :class:`~repro.net.mobility.RandomWaypointMobility`); the
    transport's ``hop_latency`` only shapes the static fanout tree,
    while its ``loss_probability`` applies to both.
    """

    name = "swarm-relay"

    def __init__(self, engine: SimulationEngine, fanout: int = 4,
                 hop_latency: float = 0.01,
                 bandwidth_bps: float = 10_000_000.0,
                 loss_probability: float = 0.0,
                 round_timeout: float = 60.0, seed: int = 0,
                 mobility: Optional[MobilityModel] = None,
                 gateway_position: Optional[Tuple[float, float]] = None,
                 rewire_interval: Optional[float] = None) -> None:
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        if rewire_interval is not None and rewire_interval <= 0:
            raise ValueError("rewire interval must be positive")
        if rewire_interval is not None and mobility is None:
            raise ValueError("rewire_interval requires a mobility model")
        if gateway_position is not None and mobility is None:
            raise ValueError("gateway_position requires a mobility model")
        super().__init__(engine, latency=hop_latency,
                         bandwidth_bps=bandwidth_bps,
                         loss_probability=loss_probability,
                         round_timeout=round_timeout, seed=seed)
        self.fanout = fanout
        self.mobility = mobility
        self.rewire_interval = rewire_interval
        #: Number of topology rewires sampled from the mobility model.
        self.rewires = 0
        self._rewire_timer_armed = False
        self._ordered_ids: list[str] = []
        if mobility is not None:
            self.mobility = self._adopt_mobility(mobility, gateway_position)
            self._mobile_names = set(mobility.device_names())
        else:
            self._mobile_names = set()

    @staticmethod
    def _adopt_mobility(mobility: MobilityModel,
                        gateway_position: Optional[Tuple[float, float]]
                        ) -> MobilityModel:
        """The model this transport samples, gateway included.

        A model that already accounts for the gateway — the verifier is
        one of its :meth:`~repro.net.mobility.MobilityModel.
        device_names` or it is pinned — is adopted as-is (and stays
        shared with the caller).  Otherwise the model must expose
        ``pin()`` (see :class:`~repro.net.mobility.
        RandomWaypointMobility`) and the gateway is anchored at
        ``gateway_position`` (default: the center of the model's area)
        — into a private :meth:`~repro.net.mobility.
        RandomWaypointMobility.fork` when the model supports forking,
        so the caller's model is never mutated and keeps producing the
        gateway-free swarm it was built for (e.g. for a cost-model
        comparison run over the same parameters).
        """
        pinned = getattr(mobility, "pinned_names", None)
        already_covered = VERIFIER_NODE in mobility.device_names() or \
            (callable(pinned) and VERIFIER_NODE in pinned())
        if already_covered:
            if gateway_position is not None:
                raise ValueError(
                    f"{VERIFIER_NODE!r} is already part of the mobility "
                    f"model; gateway_position cannot move it")
            return mobility
        pin = getattr(mobility, "pin", None)
        if not callable(pin):
            raise TypeError(
                f"mobility model {type(mobility).__name__} does not cover "
                f"the {VERIFIER_NODE!r} gateway: include it in "
                f"device_names() (emitting its links from links_at), or "
                f"provide a pin() method for the transport to anchor it")
        if gateway_position is None:
            area = getattr(mobility, "area_size", None)
            if area is None:
                raise ValueError(
                    "gateway_position is required for mobility models "
                    "without an area_size")
            gateway_position = (area / 2.0, area / 2.0)
        fork = getattr(mobility, "fork", None)
        if callable(fork):
            mobility = fork()
        mobility.pin(VERIFIER_NODE, *gateway_position)
        return mobility

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _attachment_point(self, device_id: str) -> Optional[str]:
        if self.mobility is not None:
            # Mobile swarms get no static link: the geometric graph is
            # wired per round by `rewire`.
            if device_id not in self._mobile_names:
                raise ValueError(
                    f"device {device_id!r} is not part of the mobility "
                    f"model; known devices: {len(self._mobile_names)}")
            return None
        # The first `fanout` devices parent to the gateway; device i
        # then parents to device (i // fanout) - 1, giving every relay
        # exactly `fanout` children.
        index = len(self._ordered_ids)
        if index < self.fanout:
            return VERIFIER_NODE
        return self._ordered_ids[(index // self.fanout) - 1]

    def _registered(self, device_id: str) -> None:
        self._ordered_ids.append(device_id)

    def rewire(self, time: Optional[float] = None) -> int:
        """Re-sample the topology from the mobility model; return link count.

        Samples ``mobility.links_at(time)`` (default: the engine clock)
        and replaces the network's links with the geometric graph,
        keeping only links between nodes that are actually registered
        (the mobility model may know devices that never enrolled).  The
        transport's ``loss_probability`` applies to every rewired link.
        Packets already in flight keep travelling where their next hop
        survived and are dropped — settled exactly once — where it did
        not (see :meth:`repro.net.Network.set_links`).
        """
        if self.mobility is None:
            raise RuntimeError("rewire requires a mobility model")
        if time is None:
            time = self.engine.now
        known = self.network.adjacency
        links = [Link(link.node_a, link.node_b, latency=link.latency,
                      bandwidth_bps=link.bandwidth_bps,
                      loss_probability=self.loss_probability)
                 for link in self.mobility.links_at(time)
                 if link.node_a in known and link.node_b in known]
        self.network.set_links(links)
        self.rewires += 1
        return len(links)

    def _prepare_round(self) -> None:
        if self.mobility is None:
            return
        self.rewire()
        if self.rewire_interval is not None:
            self._arm_rewire_timer()

    def _arm_rewire_timer(self) -> None:
        """Keep re-sampling the topology while any round is in flight."""
        if self._rewire_timer_armed:
            return
        self._rewire_timer_armed = True
        self.engine.schedule_in(self.rewire_interval, self._rewire_tick)

    def _rewire_tick(self) -> None:
        self._rewire_timer_armed = False
        if not self._pending:
            # No round in flight: stop ticking until the next round.
            return
        self.rewire()
        self._arm_rewire_timer()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth_of(self, device_id: str) -> int:
        """Number of hops between the device and the gateway.

        With a mobility model this is a time-dependent query: it
        reflects the topology of the latest :meth:`rewire` and raises
        :class:`KeyError` for a device currently outside the gateway's
        connected component (check :meth:`is_reachable` first).
        """
        path = self.network.path(VERIFIER_NODE, device_id)
        if path is None:
            raise KeyError(f"device {device_id!r} is not reachable")
        return len(path) - 1

    def is_reachable(self, device_id: str) -> bool:
        """True when the gateway currently has a route to the device."""
        return self.network.path(VERIFIER_NODE, device_id) is not None

    def reachable_ids(self) -> list[str]:
        """Registered devices currently routable from the gateway."""
        return [device_id for device_id in self._provers
                if self.is_reachable(device_id)]


#: Frame magic shared by both datagram directions of the socket
#: transport; anything else on the port is dropped, not crashed on.
_SOCKET_MAGIC = b"EA"
#: Request datagram: magic, request id, device-id length (id + encoded
#: request payload follow).
_SOCKET_REQUEST = struct.Struct(">2sQH")
#: Response datagram: magic, request id, disposition flag (payload
#: follows inline for ``_INLINE``).
_SOCKET_RESPONSE = struct.Struct(">2sQB")
#: TCP fallback exchange: the client sends the request id, the server
#: answers with a length-prefixed payload.
_SOCKET_FETCH = struct.Struct(">Q")
_SOCKET_LENGTH = struct.Struct(">I")
#: Receive buffer per datagram: the largest UDP payload, so nothing is
#: truncated.  asyncio's default (256 KiB) sits above glibc's default
#: mmap threshold, which made every received datagram an mmap, a
#: page-faulting touch and a munmap.
_MAX_UDP_PAYLOAD = 65535

#: Response dispositions.
_INLINE = 0        # payload follows in this datagram
_OVERSIZED = 1     # payload exceeds max_datagram: fetch it over TCP
_NO_RESPONSE = 2   # prover kept silence (undecodable request)


class _SocketServerProtocol(asyncio.DatagramProtocol):
    """Prover-side endpoint: serve each request datagram on arrival."""

    def __init__(self, transport: "SocketTransport") -> None:
        self.owner = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._serve_datagram(data, addr)


class _SocketClientProtocol(asyncio.DatagramProtocol):
    """Verifier-side endpoint: resolve pending futures from responses."""

    def __init__(self, transport: "SocketTransport") -> None:
        self.owner = transport

    def datagram_received(self, data: bytes, addr) -> None:
        del addr
        self.owner._response_datagram(data)


class SocketTransport(Transport):
    """Collections over real loopback sockets through an asyncio loop.

    Both ends of the exchange live in this process — the fleet's provers
    answer behind a shared UDP server endpoint — but every request and
    response crosses the kernel as a real datagram, so collection pays
    genuine socket I/O, scheduling and copy costs instead of a Python
    function call.  Responses larger than ``max_datagram`` (history-heavy
    collections) are fetched over a TCP fallback connection, mirroring
    how constrained deployments page large attestation histories.

    All sockets live on one background event loop in a daemon thread:
    ``exchange_many`` calls from any thread (and
    :meth:`exchange_many_async` calls from any shard coroutine) are
    marshalled onto that loop, so concurrent collection rounds
    interleave their datagrams on the same endpoints without locking.
    Responses are correlated by a per-request id; an answer arriving
    after its round timed out is counted in
    :attr:`stale_responses_rejected` and never credited elsewhere.
    """

    name = "socket"

    def __init__(self, engine: Optional[SimulationEngine] = None,
                 host: str = "127.0.0.1", max_datagram: int = 1400,
                 round_timeout: float = 10.0) -> None:
        if max_datagram <= _SOCKET_RESPONSE.size:
            raise ValueError("max_datagram must exceed the response header")
        if round_timeout <= 0:
            raise ValueError("round timeout must be positive")
        self.engine = engine
        self.host = host
        self.max_datagram = max_datagram
        self.round_timeout = round_timeout
        self._provers: Dict[str, ErasmusProver] = {}
        #: Loop-confined state (only ever touched on the background
        #: loop, so no locks): pending futures by request id, stashed
        #: oversized payloads awaiting their TCP fetch.
        self._pending: Dict[int, asyncio.Future] = {}
        self._oversized: Dict[int, bytes] = {}
        # In-flight TCP fetches.  The loop holds tasks only weakly, and
        # a client stream's reader is referenced only by its task, so a
        # cyclic GC pass mid-fetch would destroy an unreferenced one and
        # lose its response.
        self._fetches: Set[asyncio.Task] = set()
        self._rids = itertools.count(1)
        #: Responses whose round already finished (or that carried an
        #: unknown request id); rejected rather than misattributed.
        self.stale_responses_rejected = 0
        #: Responses that took the TCP fallback path.
        self.tcp_fallbacks = 0
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="socket-transport",
            daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._open(), self._loop).result(timeout=30)
        except BaseException:
            self.close()
            raise

    def _bound_udp_socket(self):
        """A loopback UDP socket with deep kernel buffers.

        A collection round legitimately bursts thousands of datagrams
        through one socket pair; the default receive buffer (~200 KiB)
        overflows long before the event loop gets a turn to drain it,
        and every overflow costs a round-timeout wait.  The kernel caps
        the request at its own maximum, so this is best-effort.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, option, 1 << 22)
            except OSError:
                pass
        sock.bind((self.host, 0))
        return sock

    async def _open(self) -> None:
        loop = asyncio.get_running_loop()
        self._server_socket, _ = await loop.create_datagram_endpoint(
            lambda: _SocketServerProtocol(self),
            sock=self._bound_udp_socket())
        self.server_address = self._server_socket.get_extra_info("sockname")
        self._client_socket, _ = await loop.create_datagram_endpoint(
            lambda: _SocketClientProtocol(self),
            sock=self._bound_udp_socket())
        for endpoint in (self._server_socket, self._client_socket):
            endpoint.max_size = _MAX_UDP_PAYLOAD
        self._tcp_server = await asyncio.start_server(
            self._serve_fetch, self.host, 0)
        self.tcp_address = self._tcp_server.sockets[0].getsockname()

    # ------------------------------------------------------------------
    # Server side (runs on the background loop)
    # ------------------------------------------------------------------
    def _serve_datagram(self, data: bytes, addr) -> None:
        if len(data) < _SOCKET_REQUEST.size or \
                not data.startswith(_SOCKET_MAGIC):
            return
        _magic, rid, id_length = _SOCKET_REQUEST.unpack_from(data)
        body = memoryview(data)[_SOCKET_REQUEST.size:]
        if len(body) < id_length:
            return
        try:
            device_id = str(body[:id_length], "utf-8")
        except UnicodeDecodeError:
            return
        prover = self._provers.get(device_id)
        if prover is None:
            return
        time = self.engine.now if self.engine is not None else None
        try:
            response = serve_request(prover, body[id_length:], time=time)
        except ProtocolDecodeError:
            # A prover keeps silence on garbage; tell the client side
            # explicitly so the round resolves None without waiting out
            # its timeout.
            self._server_socket.sendto(
                _SOCKET_RESPONSE.pack(_SOCKET_MAGIC, rid, _NO_RESPONSE),
                addr)
            return
        header = _SOCKET_RESPONSE.pack(_SOCKET_MAGIC, rid, _INLINE)
        if len(header) + len(response) <= self.max_datagram:
            self._server_socket.sendto(header + response, addr)
        else:
            self._oversized[rid] = response
            self._server_socket.sendto(
                _SOCKET_RESPONSE.pack(_SOCKET_MAGIC, rid, _OVERSIZED), addr)

    async def _serve_fetch(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            (rid,) = _SOCKET_FETCH.unpack(
                await reader.readexactly(_SOCKET_FETCH.size))
            payload = self._oversized.pop(rid, b"")
            writer.write(_SOCKET_LENGTH.pack(len(payload)))
            writer.write(payload)
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # Client side (runs on the background loop)
    # ------------------------------------------------------------------
    def _response_datagram(self, data: bytes) -> None:
        if len(data) < _SOCKET_RESPONSE.size or \
                not data.startswith(_SOCKET_MAGIC):
            return
        _magic, rid, flag = _SOCKET_RESPONSE.unpack_from(data)
        future = self._pending.pop(rid, None)
        if future is None or future.done():
            self.stale_responses_rejected += 1
            return
        if flag == _INLINE:
            future.set_result(data[_SOCKET_RESPONSE.size:])
        elif flag == _OVERSIZED:
            self.tcp_fallbacks += 1
            task = self._loop.create_task(self._fetch_oversized(rid))
            self._fetches.add(task)
            task.add_done_callback(self._fetches.discard)
            task.add_done_callback(
                lambda t, f=future: self._finish_fetch(t, f))
        else:  # _NO_RESPONSE (or unknown flag): the prover kept silence
            future.set_result(None)

    async def _fetch_oversized(self, rid: int) -> Optional[bytes]:
        reader, writer = await asyncio.open_connection(*self.tcp_address)
        try:
            writer.write(_SOCKET_FETCH.pack(rid))
            await writer.drain()
            (length,) = _SOCKET_LENGTH.unpack(
                await reader.readexactly(_SOCKET_LENGTH.size))
            if length == 0:
                return None
            return await reader.readexactly(length)
        finally:
            writer.close()

    @staticmethod
    def _finish_fetch(task: "asyncio.Task", future: asyncio.Future) -> None:
        if future.done():
            return
        if task.cancelled() or task.exception() is not None:
            future.set_result(None)
        else:
            future.set_result(task.result())

    async def _exchange(self, requests: Dict[str, bytes]
                        ) -> Dict[str, Optional[bytes]]:
        loop = asyncio.get_running_loop()
        pending: Dict[str, tuple] = {}
        for device_id, payload in requests.items():
            rid = next(self._rids)
            future = loop.create_future()
            self._pending[rid] = future
            pending[device_id] = (rid, future)
            id_bytes = device_id.encode("utf-8")
            self._client_socket.sendto(
                _SOCKET_REQUEST.pack(_SOCKET_MAGIC, rid, len(id_bytes)) +
                id_bytes + payload,
                self.server_address)
        try:
            await asyncio.wait({future for _, future in pending.values()},
                               timeout=self.round_timeout)
        finally:
            responses: Dict[str, Optional[bytes]] = {}
            for device_id, (rid, future) in pending.items():
                if future.done() and not future.cancelled():
                    responses[device_id] = future.result()
                else:
                    # Timed out: deregister so a straggler counts stale,
                    # and drop any stashed oversized payload it left.
                    future.cancel()
                    self._pending.pop(rid, None)
                    self._oversized.pop(rid, None)
                    responses[device_id] = None
        return responses

    # ------------------------------------------------------------------
    # Public contract (any thread)
    # ------------------------------------------------------------------
    def register(self, device: ProvisionedDevice) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")
        if device.device_id in self._provers:
            raise ValueError(f"duplicate device id {device.device_id!r}")
        self._provers[device.device_id] = device.prover

    def _check_requests(self, requests: Mapping[str, bytes]) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")
        for device_id in requests:
            if device_id not in self._provers:
                raise KeyError(f"device {device_id!r} is not registered")

    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        return self.exchange_many({device_id: payload})[device_id]

    def exchange_many(self, requests: Mapping[str, bytes]
                      ) -> Dict[str, Optional[bytes]]:
        self._check_requests(requests)
        if not requests:
            return {}
        return asyncio.run_coroutine_threadsafe(
            self._exchange(dict(requests)), self._loop).result()

    async def exchange_many_async(self, requests: Mapping[str, bytes]
                                  ) -> Dict[str, Optional[bytes]]:
        """Awaitable exchange from any event loop.

        The socket work still happens on the transport's own background
        loop; the caller's loop just awaits the hand-off, so any number
        of shard coroutines overlap their rounds on the same sockets.
        """
        self._check_requests(requests)
        if not requests:
            return {}
        return await asyncio.wrap_future(asyncio.run_coroutine_threadsafe(
            self._exchange(dict(requests)), self._loop))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down sockets and the background loop (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop).result(timeout=30)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()

    async def _shutdown(self) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_result(None)
        self._pending.clear()
        self._oversized.clear()
        for socket_transport in (getattr(self, "_server_socket", None),
                                 getattr(self, "_client_socket", None)):
            if socket_transport is not None:
                socket_transport.close()
        server = getattr(self, "_tcp_server", None)
        if server is not None:
            server.close()
            await server.wait_closed()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
