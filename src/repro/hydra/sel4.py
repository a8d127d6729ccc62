"""A functional model of the seL4 mechanisms HYDRA relies on.

This is not a kernel; it is the minimal capability / process / priority
model needed to express HYDRA's isolation argument in executable form:

* every memory object is referenced through :class:`Capability` objects
  carrying access :class:`Right` s;
* a :class:`Process` can only touch an object if it holds a capability
  with the needed right — the kernel's :meth:`Microkernel.check_access`
  is the single enforcement point;
* processes have fixed scheduling priorities; the runnable process with
  the highest priority runs (HYDRA gives PrAtt the maximum priority so
  its measurements cannot be pre-empted by user processes);
* capabilities can only be granted by a process that itself holds the
  capability with the ``GRANT`` right, mirroring seL4's take-grant
  discipline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


class Right(enum.Flag):
    """Access rights carried by a capability."""

    READ = enum.auto()
    WRITE = enum.auto()
    GRANT = enum.auto()
    ALL = READ | WRITE | GRANT


class CapabilityError(Exception):
    """An operation was attempted without the required capability."""


@dataclass(frozen=True)
class Capability:
    """An unforgeable reference to a kernel object with specific rights."""

    object_name: str
    rights: Right

    def allows(self, right: Right) -> bool:
        """True when this capability carries (at least) ``right``."""
        return bool(self.rights & right == right)

    def diminished(self, rights: Right) -> "Capability":
        """Return a copy restricted to the intersection of rights."""
        return Capability(self.object_name, self.rights & rights)


@dataclass
class Process:
    """A user-space process under the microkernel."""

    name: str
    priority: int
    capabilities: Dict[str, Capability] = field(default_factory=dict)
    parent: Optional[str] = None

    def holds(self, object_name: str, right: Right) -> bool:
        """True when the process holds a capability with ``right``."""
        capability = self.capabilities.get(object_name)
        return capability is not None and capability.allows(right)


class Microkernel:
    """Process table, capability enforcement and priority scheduling."""

    MAX_PRIORITY = 255

    def __init__(self) -> None:
        self._processes: Dict[str, Process] = {}
        self._objects: set[str] = set()
        self.access_denials: list[tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    # Objects and processes
    # ------------------------------------------------------------------
    def register_object(self, name: str) -> None:
        """Register a kernel object (a memory region, a TCB, a device)."""
        if name in self._objects:
            raise ValueError(f"object {name!r} already registered")
        self._objects.add(name)

    def objects(self) -> set[str]:
        """Names of all registered kernel objects."""
        return set(self._objects)

    def create_initial_process(self, name: str, priority: int,
                               capabilities: Iterable[Capability]) -> Process:
        """Create the first user-space process (HYDRA's PrAtt).

        The initial process is created by the kernel at boot and may be
        handed capabilities to any registered object.
        """
        if self._processes:
            raise CapabilityError(
                "the initial process must be created before any other")
        return self._add_process(name, priority, capabilities, parent=None)

    def spawn(self, parent_name: str, name: str, priority: int,
              capabilities: Iterable[Capability] = ()) -> Process:
        """Spawn a child process on behalf of ``parent_name``.

        HYDRA's rule: children must run at strictly lower priority than
        the attestation process, and the parent can only delegate
        capabilities it itself holds with the GRANT right.
        """
        parent = self.process(parent_name)
        if priority >= parent.priority:
            raise CapabilityError(
                "child processes must run at a lower priority than their parent")
        granted = []
        for capability in capabilities:
            if not parent.holds(capability.object_name, Right.GRANT):
                raise CapabilityError(
                    f"{parent_name!r} cannot grant capability to "
                    f"{capability.object_name!r} without GRANT right")
            parent_cap = parent.capabilities[capability.object_name]
            granted.append(capability.diminished(parent_cap.rights))
        return self._add_process(name, priority, granted, parent=parent_name)

    def _add_process(self, name: str, priority: int,
                     capabilities: Iterable[Capability],
                     parent: Optional[str]) -> Process:
        if name in self._processes:
            raise ValueError(f"process {name!r} already exists")
        if not 0 <= priority <= self.MAX_PRIORITY:
            raise ValueError("priority must be in [0, 255]")
        process = Process(name=name, priority=priority, parent=parent)
        for capability in capabilities:
            if capability.object_name not in self._objects:
                raise ValueError(
                    f"capability references unknown object "
                    f"{capability.object_name!r}")
            process.capabilities[capability.object_name] = capability
        self._processes[name] = process
        return process

    def process(self, name: str) -> Process:
        """Look up a process by name."""
        try:
            return self._processes[name]
        except KeyError as exc:
            raise KeyError(f"no process named {name!r}") from exc

    # ------------------------------------------------------------------
    # Enforcement and scheduling
    # ------------------------------------------------------------------
    def check_access(self, process_name: str, object_name: str,
                     right: Right) -> bool:
        """Check (and record) whether a process may access an object."""
        process = self.process(process_name)
        if process.holds(object_name, right):
            return True
        self.access_denials.append((process_name, object_name, right.name or ""))
        return False

    def require_access(self, process_name: str, object_name: str,
                       right: Right) -> None:
        """Like :meth:`check_access` but raises on denial."""
        if not self.check_access(process_name, object_name, right):
            raise CapabilityError(
                f"process {process_name!r} lacks {right!r} on {object_name!r}")

    def exclusive_holder(self, object_name: str,
                         right: Right = Right.READ) -> Optional[str]:
        """Name of the only process holding ``right`` on the object.

        Returns ``None`` when zero or more than one process holds it.
        HYDRA's key-protection property is exactly "PrAtt is the
        exclusive holder of READ on the key region".
        """
        holders = [process.name for process in self._processes.values()
                   if process.holds(object_name, right)]
        return holders[0] if len(holders) == 1 else None

    def schedule(self) -> Optional[Process]:
        """Return the process with the highest priority."""
        if not self._processes:
            return None
        return max(self._processes.values(),
                   key=lambda process: process.priority)
