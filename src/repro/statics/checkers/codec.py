"""Rule ``codec``: every opcode has both arms; decode never mutates.

The worker-pipe frame codec (:mod:`repro.worker.process`) dispatches on
module-level ``OP_*`` opcode constants.  A constant with a decode arm
but no encode site is dead protocol (or a sender someone forgot);
encode without decode is a frame the peer will reject as unknown.
This rule requires each ``OP_*`` constant defined in a module to
appear both as a call argument somewhere (the encode/submit side) and
in a comparison (the decode dispatch).

Second invariant: decode paths hand out zero-copy views into the
received frame, so a decoder that *writes* through a
``memoryview``-derived name corrupts the very buffer other views
alias.  Inside ``decode*`` functions, subscript stores into a
parameter or into any name derived from ``memoryview(...)`` are
flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set

from repro.statics.engine import Checker, FileContext, Finding, terminal_name

_OPCODE_RE = re.compile(r"^OP_[A-Z0-9_]+$")


def _module_opcodes(tree: ast.Module) -> Dict[str, int]:
    opcodes: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _OPCODE_RE.match(node.targets[0].id) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int):
            opcodes[node.targets[0].id] = node.value.lineno
    return opcodes


def _buffer_names(func: ast.AST) -> Set[str]:
    """Parameters plus names assigned from memoryview-ish expressions."""
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            names.add(arg.arg)
    # Fixpoint over assignments: view = memoryview(frame),
    # sub = view[a:b], ro = view.toreadonly() all taint the target.
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            tainted = False
            if isinstance(value, ast.Call) \
                    and terminal_name(value.func) in ("memoryview",
                                                      "toreadonly"):
                tainted = True
            elif isinstance(value, (ast.Subscript, ast.Name,
                                    ast.Attribute)):
                base = terminal_name(value)
                root = value
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in names:
                    tainted = True
                elif base in names:
                    tainted = True
            if tainted:
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in names:
                        names.add(target.id)
                        changed = True
    return names


class CodecExhaustivenessChecker(Checker):
    rule = "codec"
    description = ("every OP_* opcode needs an encode and a decode arm; "
                   "decode paths must not write through memoryviews")
    invariant = ("the worker frame codec round-trips: opcodes encode and "
                 "decode symmetrically, and zero-copy decode views never "
                 "mutate the shared receive buffer")
    applies_to_tests = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(ctx.tree, ast.Module):
            return
        opcodes = _module_opcodes(ctx.tree)
        if len(opcodes) >= 2:
            encoded: Set[str] = set()
            decoded: Set[str] = set()
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call):
                    for arg in node.args:
                        if isinstance(arg, ast.Name) \
                                and arg.id in opcodes:
                            encoded.add(arg.id)
                elif isinstance(node, ast.Compare):
                    for operand in [node.left] + list(node.comparators):
                        # `opcode in (OP_A, OP_B)` dispatches too.
                        elements = operand.elts if isinstance(
                            operand, (ast.Tuple, ast.List, ast.Set)) \
                            else [operand]
                        for element in elements:
                            if isinstance(element, ast.Name) \
                                    and element.id in opcodes:
                                decoded.add(element.id)
            for name, lineno in sorted(opcodes.items(),
                                       key=lambda item: item[1]):
                anchor = ast.Constant(value=0)
                anchor.lineno, anchor.col_offset = lineno, 0
                if name not in encoded:
                    yield ctx.finding(
                        self.rule, anchor,
                        f"opcode {name} is decoded but never encoded — "
                        f"dead protocol arm or missing sender")
                if name not in decoded:
                    yield ctx.finding(
                        self.rule, anchor,
                        f"opcode {name} is encoded but never decoded — "
                        f"the peer will reject it as unknown")
        # Mutation through decode-path views.
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith("decode") \
                    and "_decode" not in func.name:
                continue
            buffers = _buffer_names(func)
            for node in ast.walk(func):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign,)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        root = target.value
                        while isinstance(root, (ast.Subscript,
                                                ast.Attribute)):
                            root = root.value
                        if isinstance(root, ast.Name) \
                                and root.id in buffers:
                            yield ctx.finding(
                                self.rule, node,
                                f"decode path {func.name}() writes "
                                f"through buffer {root.id!r}; decode "
                                f"views are zero-copy and must stay "
                                f"read-only")
