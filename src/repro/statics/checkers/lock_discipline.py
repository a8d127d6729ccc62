"""Rule ``lock-discipline``: shared stores stay behind their lock.

Sharded fleet verifiers funnel every concurrent :class:`StateStore`
access through ``_LockedStore`` — the JSONL stream and the SQLite
connection are single-writer.  A class that builds a ``_LockedStore``
and then calls store methods on the *raw* store anyway re-opens the
race the wrapper exists to close.  Second hazard: blocking while
holding a lock (a ``sleep``, a socket round-trip, a subprocess) turns
a microsecond critical section into a convoy for every shard worker.

Flagged:

* inside any class that constructs ``_LockedStore(raw)``: calls to
  StateStore methods on ``raw`` or on a ``self.<attr>`` bound to it
  (``close`` is exempt — teardown is single-threaded by contract);
* calls made lexically inside a ``with <something named *lock*>:``
  block that are known to block: ``time.sleep``, socket send/recv/
  accept/connect, ``subprocess.*``, ``select.select``, and
  ``.join()`` on thread/process-named objects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.statics.engine import (
    Checker, FileContext, Finding, dotted_chain, split_name, terminal_name,
)

STORE_METHODS = {
    "save_enrollment", "append_report", "checkpoint", "restore_state",
    "has_enrollment", "state_rows",
}
_BLOCKING_SOCKET_OPS = {
    "recv", "recv_bytes", "recv_into", "recvfrom", "send", "send_bytes",
    "sendall", "sendto", "accept", "connect",
}
_THREADISH_PARTS = {"thread", "threads", "process", "proc", "worker",
                    "reader", "pool"}


def _is_lockish(node: ast.AST) -> bool:
    name = terminal_name(node)
    return name is not None and "lock" in name.lower()


class _WithLockVisitor(ast.NodeVisitor):
    """Collect blocking calls lexically under a ``with *lock*:``."""

    def __init__(self) -> None:
        self.lock_depth = 0
        self.hits: List[ast.Call] = []

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lockish(item.context_expr) for item in node.items)
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        if self.lock_depth > 0 and self._blocks(node):
            self.hits.append(node)
        self.generic_visit(node)

    @staticmethod
    def _blocks(node: ast.Call) -> bool:
        chain = dotted_chain(node.func)
        if not chain:
            return False
        if chain == ["sleep"] or tuple(chain[-2:]) == ("time", "sleep"):
            return True
        if chain[0] == "subprocess" and len(chain) > 1:
            return True
        if tuple(chain[-2:]) == ("select", "select"):
            return True
        if len(chain) >= 2 and chain[-1] in _BLOCKING_SOCKET_OPS:
            return True
        if len(chain) >= 2 and chain[-1] == "join" \
                and _THREADISH_PARTS & set(split_name(chain[-2])):
            return True
        return False


def _raw_store_names(cls: ast.ClassDef) -> Optional[Set[str]]:
    """Names aliasing the unwrapped store in a _LockedStore-using class.

    Returns ``None`` when the class never constructs a ``_LockedStore``
    (the rule does not apply), otherwise the set of raw names: the
    constructor argument plus any ``self.<attr>`` it was assigned to.
    """
    raw: Set[str] = set()
    wraps = False
    assigns: Dict[str, Set[str]] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    assigns.setdefault(node.value.id,
                                       set()).add(target.attr)
        if isinstance(node, ast.Call) \
                and terminal_name(node.func) == "_LockedStore" \
                and node.args and isinstance(node.args[0], ast.Name):
            wraps = True
            raw.add(node.args[0].id)
    if not wraps:
        return None
    for source in list(raw):
        raw.update(assigns.get(source, ()))
    return raw


class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = ("flags raw StateStore calls that bypass _LockedStore "
                   "and blocking calls made while holding a lock")
    invariant = ("shard workers and their parent reach the shared "
                 "single-writer store only through _LockedStore, and "
                 "critical sections never block on sleeps, sockets or "
                 "subprocesses")
    applies_to_tests = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            raw = _raw_store_names(node)
            if raw is None:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call) \
                        or not isinstance(call.func, ast.Attribute) \
                        or call.func.attr not in STORE_METHODS:
                    continue
                base = call.func.value
                is_raw = (isinstance(base, ast.Name) and base.id in raw) \
                    or (isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id == "self"
                        and base.attr in raw)
                if is_raw:
                    yield ctx.finding(
                        self.rule, call,
                        f".{call.func.attr}() called on the raw store "
                        f"in {node.name}, bypassing _LockedStore; route "
                        f"through the locked wrapper")
        visitor = _WithLockVisitor()
        visitor.visit(ctx.tree)
        for call in visitor.hits:
            chain = ".".join(dotted_chain(call.func))
            yield ctx.finding(
                self.rule, call,
                f"blocking call {chain}() while holding a lock; move it "
                f"outside the critical section")
