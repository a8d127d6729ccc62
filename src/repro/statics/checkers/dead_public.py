"""Rule ``dead-public``: every public def in ``src/`` has a non-test caller.

A feature whose only caller is its own test is surface that must be
read, tested and kept working while adding nothing to the
reproduction.  This rule finds it across files: while the engine walks
the tree it records each public definition under ``src/`` and every
name a non-test file references, and :meth:`finish` reports the
definitions no non-test file names.

Public means a module-level function or class, or a method of a
module-level class, whose name has no leading ``_``.  A reference is
an ``ast.Name`` or ``ast.Attribute`` with that identifier, or a string
constant equal to it (``getattr(obj, "name")``, ``patch(owner,
"name", ...)``).  The def's own name, ``__all__`` entries and
``import`` aliases are not references: a re-export is not a use.

The match is by name alone, so it is conservative: a live def is
never flagged, while a dead def sharing its name with a live one is
missed.  Methods of a class that derives from a base not defined in
the scanned tree are exempt, since a framework calls them by name
(``asyncio.DatagramProtocol.datagram_received``,
``ast.NodeVisitor.visit_Call``); the abstract-base markers in
``_MARKER_BASES`` call nothing by name and exempt nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.statics.engine import Checker, FileContext, Finding, dotted_chain

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Bases that mark an in-tree contract and call no method by name, so
#: they exempt nothing.
_MARKER_BASES = {"object", "ABC", "Generic", "Protocol"}


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


def _base_names(node: ast.ClassDef) -> List[str]:
    """Terminal names of a class's bases (``Generic[T]`` → ``Generic``)."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        chain = dotted_chain(base)
        if chain:
            names.append(chain[-1])
    return names


class DeadPublicChecker(Checker):
    rule = "dead-public"
    description = ("a public def in src/ that no non-test file references "
                   "is dead surface: delete it or waive it")
    invariant = ("every entry point in src/ serves the reproduction; a "
                 "feature whose only caller is its own test is deleted")

    def __init__(self) -> None:
        # (finding if dead, def name, bases of the enclosing class)
        self._defs: List[Tuple[Finding, str, List[str]]] = []
        self._classes: Set[str] = set()
        self._references: Set[str] = set()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._classes.add(node.name)
        if "src" in ctx.relpath.split("/"):
            self._collect_defs(ctx)
        if not ctx.is_test:
            self._collect_references(ctx.tree)
        return iter(())

    def _collect_defs(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if not isinstance(node, _DEF_TYPES):
                continue
            if not node.name.startswith("_"):
                self._add_def(ctx, node, node.name, [])
            if isinstance(node, ast.ClassDef):
                bases = _base_names(node)
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_"):
                        self._add_def(ctx, member,
                                      f"{node.name}.{member.name}", bases)

    def _add_def(self, ctx: FileContext, node: ast.AST, qualname: str,
                 bases: List[str]) -> None:
        kind = "class" if isinstance(node, ast.ClassDef) else "def"
        finding = ctx.finding(
            self.rule, node,
            f"public {kind} {qualname} has no reference outside tests; "
            f"delete it with its tests, or waive it with a reason")
        self._defs.append((finding, qualname.rsplit(".", 1)[-1], bases))

    def _collect_references(self, tree: ast.AST) -> None:
        stack = [tree]
        while stack:
            node = stack.pop()
            if _is_all_assignment(node):
                continue
            if isinstance(node, ast.Name):
                self._references.add(node.id)
            elif isinstance(node, ast.Attribute):
                self._references.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                self._references.add(node.value)
            stack.extend(ast.iter_child_nodes(node))

    def finish(self) -> Iterator[Finding]:
        defs, classes, references = \
            self._defs, self._classes, self._references
        # A scan owns the state it collected; the next one starts empty.
        self._defs, self._classes, self._references = [], set(), set()
        for finding, name, bases in defs:
            if any(base not in classes and base not in _MARKER_BASES
                   for base in bases):
                continue
            if name not in references:
                yield finding
