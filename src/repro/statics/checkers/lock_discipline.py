"""Rule ``lock-discipline``: critical sections never block.

Blocking while holding a lock (a ``sleep``, a socket round-trip, a
subprocess, a thread join) turns a microsecond critical section into a
convoy for every thread waiting on that lock.

Flagged: calls made lexically inside a ``with <something named
*lock*>:`` block that are known to block: ``time.sleep``, socket
send/recv/accept/connect, ``subprocess.*``, ``select.select``, and
``.join()`` on thread/process-named objects.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.statics.engine import (
    Checker, FileContext, Finding, dotted_chain, split_name, terminal_name,
)

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


class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = "flags blocking calls made while holding a lock"
    invariant = ("critical sections never block on sleeps, sockets, "
                 "subprocesses or thread joins")
    applies_to_tests = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        visitor = _WithLockVisitor()
        visitor.visit(ctx.tree)
        for call in visitor.hits:
            chain = ".".join(dotted_chain(call.func))
            yield ctx.finding(
                self.rule, call,
                f"blocking call {chain}() while holding a lock; move it "
                f"outside the critical section")
