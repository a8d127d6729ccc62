"""Mobility models: topologies that change over time.

Section 6 argues that existing swarm RA protocols (SEDA, SANA, LISA)
need the topology to stay essentially static for the whole attestation
instance — whose duration is dominated by *computation* on every device
— whereas ERASMUS's collection phase is so short that high mobility is
harmless.  To exercise that claim we need topologies that actually
move; this module provides a random-waypoint model over a 2-D area with
a fixed radio range, producing a geometric connectivity graph that is
re-sampled as the devices move.
"""

from __future__ import annotations

import abc
import copy
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.link import Link


@dataclass
class DevicePosition:
    """Position and current waypoint of one mobile device."""

    x: float
    y: float
    target_x: float
    target_y: float
    speed: float


class MobilityModel(abc.ABC):
    """Produces the set of links that exist at a given time."""

    @abc.abstractmethod
    def links_at(self, time: float) -> List[Link]:
        """Return the links present at simulation time ``time``."""

    @abc.abstractmethod
    def device_names(self) -> List[str]:
        """Names of the devices this model moves."""


class RandomWaypointMobility(MobilityModel):
    """Random-waypoint mobility over a square area with unit-disc links.

    Each device picks a random waypoint and moves towards it at its
    speed; on arrival it picks a new waypoint.  Two devices share a link
    whenever their distance is at most ``radio_range``.  ``speed = 0``
    degenerates to a static random geometric graph.
    """

    def __init__(self, device_names: List[str], area_size: float = 100.0,
                 radio_range: float = 30.0, speed: float = 1.0,
                 seed: int = 0, link_latency: float = 0.002,
                 link_bandwidth_bps: float = 1_000_000.0) -> None:
        if not device_names:
            raise ValueError("at least one device is required")
        if area_size <= 0 or radio_range <= 0:
            raise ValueError("area size and radio range must be positive")
        if speed < 0:
            raise ValueError("speed must be non-negative")
        self.area_size = area_size
        self.radio_range = radio_range
        self.speed = speed
        self.link_latency = link_latency
        self.link_bandwidth_bps = link_bandwidth_bps
        self._names = list(device_names)
        self._random = random.Random(seed)
        self._positions: Dict[str, DevicePosition] = {
            name: self._spawn_position() for name in self._names}
        #: Static anchors (e.g. the collection gateway) that take part in
        #: the geometric graph but never move; see :meth:`pin`.
        self._pinned: Dict[str, DevicePosition] = {}
        self._last_update = 0.0

    def _spawn_position(self) -> DevicePosition:
        return DevicePosition(
            x=self._random.uniform(0, self.area_size),
            y=self._random.uniform(0, self.area_size),
            target_x=self._random.uniform(0, self.area_size),
            target_y=self._random.uniform(0, self.area_size),
            speed=self.speed,
        )

    def device_names(self) -> List[str]:
        """Names of the mobile devices (pinned anchors excluded)."""
        return list(self._names)

    def pin(self, name: str, x: float, y: float) -> None:
        """Anchor a static node (e.g. a gateway) into the geometric graph.

        The pinned node never moves but participates in link formation
        exactly like a device, so a collection gateway placed inside the
        area is reachable from whichever devices currently roam within
        radio range of it.  Pinned nodes are not returned by
        :meth:`device_names` — they are infrastructure, not swarm
        members.
        """
        if name in self._positions or name in self._pinned:
            raise ValueError(f"{name!r} is already part of this model")
        if not (0.0 <= x <= self.area_size and 0.0 <= y <= self.area_size):
            raise ValueError(f"pinned position {(x, y)} is outside the "
                             f"{self.area_size} x {self.area_size} area")
        self._pinned[name] = DevicePosition(x=x, y=y, target_x=x, target_y=y,
                                            speed=0.0)

    def pinned_names(self) -> List[str]:
        """Names of the static anchors added via :meth:`pin`."""
        return list(self._pinned)

    def _advance(self, elapsed: float) -> None:
        for position in self._positions.values():
            remaining = elapsed
            while remaining > 0:
                distance_x = position.target_x - position.x
                distance_y = position.target_y - position.y
                distance = math.hypot(distance_x, distance_y)
                travel = position.speed * remaining
                if position.speed == 0:
                    break
                if travel >= distance:
                    position.x = position.target_x
                    position.y = position.target_y
                    remaining -= distance / position.speed if position.speed \
                        else remaining
                    position.target_x = self._random.uniform(0, self.area_size)
                    position.target_y = self._random.uniform(0, self.area_size)
                else:
                    fraction = travel / distance
                    position.x += distance_x * fraction
                    position.y += distance_y * fraction
                    remaining = 0.0

    def links_at(self, time: float) -> List[Link]:
        """Advance positions to ``time`` and return the current links.

        Candidate pairs come from a uniform grid of ``radio_range``-sized
        cells (a pair can only be in range if their cells are adjacent),
        so densely populated swarms avoid the all-pairs distance scan;
        the returned links are ordered exactly as the all-pairs scan
        would order them.
        """
        elapsed = time - self._last_update
        if elapsed < 0:
            raise ValueError("mobility time cannot move backwards")
        if elapsed > 0:
            self._advance(elapsed)
            self._last_update = time
        names = self._names + list(self._pinned)
        positions = [self._positions.get(name) or self._pinned[name]
                     for name in names]
        cell = self.radio_range
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for index, position in enumerate(positions):
            key = (int(position.x // cell), int(position.y // cell))
            buckets.setdefault(key, []).append(index)
        links: List[Link] = []
        for index, first_position in enumerate(positions):
            cell_x = int(first_position.x // cell)
            cell_y = int(first_position.y // cell)
            candidates: List[int] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    candidates.extend(
                        buckets.get((cell_x + dx, cell_y + dy), ()))
            for other in sorted(candidates):
                if other <= index:
                    continue
                second_position = positions[other]
                distance = math.hypot(first_position.x - second_position.x,
                                      first_position.y - second_position.y)
                if distance <= self.radio_range:
                    links.append(Link(names[index], names[other],
                                      latency=self.link_latency,
                                      bandwidth_bps=self.link_bandwidth_bps))
        return links

    def fork(self) -> "RandomWaypointMobility":
        """An independent copy: same positions, waypoints and RNG state.

        Advancing the fork never perturbs this model, so a transport can
        pin a gateway into its private copy without changing what a
        protocol run on the original model will see.  A deep copy, so
        subclasses (custom dynamics, extra state) fork faithfully.
        """
        return copy.deepcopy(self)


class PartitionMergeMobility(MobilityModel):
    """A swarm that periodically splits into groups and heals again.

    Section 6's hard case for collect-then-verify swarm protocols is
    not smooth motion but *partitions*: a sub-swarm wanders out of
    range mid-instance and everything computed so far is wasted.  This
    model produces exactly that, deterministically: the devices are
    divided round-robin into ``groups`` sub-swarms; within each cycle
    of ``period`` seconds the swarm spends the first
    ``1 - merged_fraction`` of the cycle partitioned (links only inside
    each group) and the rest merged (bridge links join the groups).
    Pinned anchors — the collection gateway — attach to group 0, so
    during a partition only group 0's devices are reachable and a
    collection round shows the split as lost responses, healing on its
    own once the cycle merges.

    Group members are chained (member *i* links to member *i+1*), so
    reaching deep members takes multiple relay hops exactly like a
    marching column; ``merged_fraction=1`` degenerates to a permanently
    connected swarm.
    """

    def __init__(self, device_names: List[str], groups: int = 2,
                 period: float = 600.0, merged_fraction: float = 0.5,
                 area_size: float = 100.0, link_latency: float = 0.002,
                 link_bandwidth_bps: float = 1_000_000.0) -> None:
        if not device_names:
            raise ValueError("at least one device is required")
        if groups < 1:
            raise ValueError("at least one group is required")
        if period <= 0:
            raise ValueError("the partition/merge period must be positive")
        if not 0.0 <= merged_fraction <= 1.0:
            raise ValueError("merged_fraction must be within [0, 1]")
        if area_size <= 0:
            raise ValueError("area size must be positive")
        self.period = period
        self.merged_fraction = merged_fraction
        self.area_size = area_size
        self.link_latency = link_latency
        self.link_bandwidth_bps = link_bandwidth_bps
        self._names = list(device_names)
        self.groups: List[List[str]] = [[] for _ in range(groups)]
        for index, name in enumerate(self._names):
            self.groups[index % groups].append(name)
        self.groups = [group for group in self.groups if group]
        self._pinned: List[str] = []

    def device_names(self) -> List[str]:
        """Names of the swarm devices (pinned anchors excluded)."""
        return list(self._names)

    def pin(self, name: str, x: float, y: float) -> None:
        """Anchor a static node (the gateway) onto group 0's head.

        The coordinates are accepted for interface compatibility with
        :class:`RandomWaypointMobility` (the swarm transport pins the
        gateway at the area center); connectivity here is group
        membership, not geometry.
        """
        if name in self._names or name in self._pinned:
            raise ValueError(f"{name!r} is already part of this model")
        if not (0.0 <= x <= self.area_size and 0.0 <= y <= self.area_size):
            raise ValueError(f"pinned position {(x, y)} is outside the "
                             f"{self.area_size} x {self.area_size} area")
        self._pinned.append(name)

    def pinned_names(self) -> List[str]:
        """Names of the static anchors added via :meth:`pin`."""
        return list(self._pinned)

    def merged_at(self, time: float) -> bool:
        """True when the groups are merged at ``time``.

        Each cycle starts partitioned and merges for its final
        ``merged_fraction``; a single group is always "merged".
        """
        if len(self.groups) <= 1 or self.merged_fraction >= 1.0:
            return True
        if self.merged_fraction <= 0.0:
            return False
        phase = (time % self.period) / self.period
        return phase >= 1.0 - self.merged_fraction

    def _link(self, node_a: str, node_b: str) -> Link:
        return Link(node_a, node_b, latency=self.link_latency,
                    bandwidth_bps=self.link_bandwidth_bps)

    def links_at(self, time: float) -> List[Link]:
        if time < 0:
            raise ValueError("mobility time cannot be negative")
        links: List[Link] = []
        for anchor in self._pinned:
            links.append(self._link(anchor, self.groups[0][0]))
        for group in self.groups:
            for first, second in zip(group, group[1:]):
                links.append(self._link(first, second))
        if self.merged_at(time):
            for left, right in zip(self.groups, self.groups[1:]):
                links.append(self._link(left[0], right[0]))
        return links

    def fork(self) -> "PartitionMergeMobility":
        """An independent copy (links are pure functions of time)."""
        return copy.deepcopy(self)
