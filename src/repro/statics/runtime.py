"""Runtime lock-order witness — the dynamic half of ``repro.statics``.

The static ``lock-discipline`` rule catches *lexical* violations; this
module catches the ones only an execution can show: two threads taking
the same pair of locks in opposite orders (a latent deadlock), and
blocking calls made while a lock is held.

Production code creates its locks through :func:`named_lock`.  With no
witness active that returns a plain :class:`threading.Lock` /
``RLock`` — zero overhead beyond one module-global check at *creation*
time, never per acquire.  Inside a :func:`witness` context (the fleet
and store test suites activate one per test), new locks come back
wrapped in :class:`WitnessedLock`: every acquisition is recorded
per-thread, lock-order edges accumulate in a global graph keyed by
lock *name* (lock-rank discipline — all instances of one name share a
rank), and an acquisition that closes a cycle is recorded as a
:class:`LockViolation`.  While active, ``time.sleep`` is patched to
flag held-lock sleeps.

Nothing here imports the rest of ``repro`` — fleet, store and obs all
import this module for :func:`named_lock`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "LockViolation",
    "LockWitness",
    "WitnessedLock",
    "active_witness",
    "named_lock",
    "witness",
]

_ACTIVE: Optional["LockWitness"] = None


@dataclass(frozen=True)
class LockViolation:
    """One observed breach of the lock discipline."""

    kind: str            # "order-inversion" | "blocking-call"
    thread: str
    acquiring: str       # lock name being taken (or blocking call name)
    held: Tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return (f"[{self.kind}] thread {self.thread!r} "
                f"{self.detail} (held: {', '.join(self.held) or 'none'})")


class WitnessedLock:
    """A named lock that reports acquisitions to its witness.

    Supports the full ``threading.Lock``/``RLock`` surface the repo
    uses (``acquire``/``release``/context manager/``locked``);
    anything else is delegated to the wrapped lock.
    """

    def __init__(self, witness: "LockWitness", name: str, inner) -> None:
        self.witness = witness
        self.name = name
        self.inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self.witness._note_acquire(self)
        return acquired

    def release(self) -> None:
        self.witness._note_release(self)
        self.inner.release()

    def __enter__(self) -> "WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self.inner.locked()

    def __getattr__(self, item):
        return getattr(self.inner, item)

    def __repr__(self) -> str:
        return f"WitnessedLock({self.name!r})"


class LockWitness:
    """Accumulates lock-order edges and violations across threads."""

    def __init__(self) -> None:
        self.violations: List[LockViolation] = []
        #: name -> names acquired while it was held (order edges).
        self._edges: Dict[str, Set[str]] = {}
        self._edge_examples: Dict[Tuple[str, str], str] = {}
        self._held = threading.local()
        self._graph_lock = threading.Lock()
        self._locks_created: List[str] = []

    # ------------------------------------------------------------------
    # Lock construction
    # ------------------------------------------------------------------
    def lock(self, name: str, kind: str = "lock") -> WitnessedLock:
        """A fresh witnessed lock registered under ``name``."""
        inner = threading.RLock() if kind == "rlock" else threading.Lock()
        self._locks_created.append(name)
        return WitnessedLock(self, name, inner)

    # ------------------------------------------------------------------
    # Acquisition tracking
    # ------------------------------------------------------------------
    def _stack(self) -> List[WitnessedLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held_names(self) -> Tuple[str, ...]:
        """Names of distinct locks the calling thread holds right now."""
        names: List[str] = []
        for lock in self._stack():
            if lock.name not in names:
                names.append(lock.name)
        return tuple(names)

    def _note_acquire(self, lock: WitnessedLock) -> None:
        stack = self._stack()
        held = [entry for entry in stack if entry is not lock]
        reentrant = any(entry is lock for entry in stack)
        stack.append(lock)
        if reentrant or not held:
            return
        thread = threading.current_thread().name
        with self._graph_lock:
            for holder in held:
                if holder.name == lock.name:
                    self.violations.append(LockViolation(
                        kind="order-inversion", thread=thread,
                        acquiring=lock.name,
                        held=tuple(entry.name for entry in held),
                        detail=f"acquired two distinct locks of rank "
                               f"{lock.name!r} (same-rank nesting)"))
                    continue
                edge = (holder.name, lock.name)
                path = self._path(lock.name, holder.name)
                if path is not None:
                    self.violations.append(LockViolation(
                        kind="order-inversion", thread=thread,
                        acquiring=lock.name,
                        held=tuple(entry.name for entry in held),
                        detail=f"acquired {lock.name!r} while holding "
                               f"{holder.name!r}, but the reverse order "
                               f"{' -> '.join(path)} was taken "
                               f"{self._edge_examples.get((path[0], path[1]), 'earlier')}"))
                self._edges.setdefault(holder.name, set()).add(lock.name)
                self._edge_examples.setdefault(
                    edge, f"by thread {thread!r}")

    def _note_release(self, lock: WitnessedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    def _path(self, source: str, target: str) -> Optional[List[str]]:
        """A lock-order path source -> ... -> target, if one exists."""
        seen = {source}
        frontier: List[List[str]] = [[source]]
        while frontier:
            path = frontier.pop()
            for successor in self._edges.get(path[-1], ()):
                if successor == target:
                    return path + [successor]
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(path + [successor])
        return None

    # ------------------------------------------------------------------
    # Blocking-call detection
    # ------------------------------------------------------------------
    def note_blocking(self, description: str) -> None:
        """Record a blocking operation if the caller holds any lock."""
        held = self.held_names()
        if held:
            self.violations.append(LockViolation(
                kind="blocking-call",
                thread=threading.current_thread().name,
                acquiring=description, held=held,
                detail=f"blocking call {description} while holding "
                       f"{', '.join(held)}"))


# statics: ok(dead-public) — test seam: the lock witness tests inspect
def active_witness() -> Optional[LockWitness]:
    """The currently installed witness, if any (test mode only)."""
    return _ACTIVE


def named_lock(name: str, kind: str = "lock"):
    """A lock for production code: plain normally, witnessed in tests.

    ``kind`` is ``"lock"`` or ``"rlock"``.  The name is the lock's
    *rank* for order checking — all locks created under one name are
    expected to be leaves relative to each other (never nested).
    """
    if _ACTIVE is not None:
        return _ACTIVE.lock(name, kind)
    return threading.RLock() if kind == "rlock" else threading.Lock()


@contextmanager
def witness(patch_sleep: bool = True) -> Iterator[LockWitness]:
    """Install a fresh witness; locks created inside are watched.

    While active, ``time.sleep`` reports held-lock sleeps to the
    witness before sleeping.  Witnesses do not nest — activating a
    second one raises, because two graphs over one process's locks
    would each see half the story.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a lock witness is already active")
    current = LockWitness()
    _ACTIVE = current
    original_sleep = time.sleep
    if patch_sleep:
        def _watched_sleep(seconds: float) -> None:
            current.note_blocking(f"time.sleep({seconds!r})")
            original_sleep(seconds)

        time.sleep = _watched_sleep
    try:
        yield current
    finally:
        if patch_sleep:
            time.sleep = original_sleep
        _ACTIVE = None
