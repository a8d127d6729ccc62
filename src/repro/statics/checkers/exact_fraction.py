"""Rule ``exact-fraction``: health/freshness math stays rational.

:class:`repro.worker.health.FleetHealth` accumulates freshness as an
exact :class:`~fractions.Fraction` so that merging per-shard (or
per-process) aggregates is associative — the sharded twin serializes
byte-identically to the single verifier.  The SLO rules mirror the
same accumulator so streaming verdicts equal post-hoc ones.  Float
creeping into those paths breaks the byte-identity in the last ulp,
and float *thresholds* are subtly worse: ``Fraction(0.07)`` is the
binary float (0.070000000000000006938893903907…), not the decimal the
operator wrote — the repo's convention (see ``CoverageRule``) is
``Fraction(str(x))`` at the decimal boundary.

Three patterns are flagged anywhere in the tree:

* ``Fraction(x)`` where ``x`` is a threshold-named variable
  (``max_*`` / ``min_*`` / ``*_seconds`` / ``*_fraction`` /
  ``*_threshold`` / ``*_budget``) — wrap in ``str(...)``;
* ``+=`` / ``-=`` into a ``*_sum`` accumulator from an expression
  containing a float literal or a bare ``float(...)`` call;
* multiplying a fraction/threshold-named value by a count-named value
  (``min_fraction * expected_devices``) — compare
  ``Fraction(attested, expected) < Fraction(str(min_fraction))``
  instead of materializing a float target.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.statics.engine import (
    Checker, FileContext, Finding, split_name, terminal_name,
)

_THRESHOLD_SUFFIXES = ("_seconds", "_fraction", "_threshold", "_budget")
_THRESHOLD_PREFIXES = ("min_", "max_")
_COUNT_PARTS = {"expected", "count", "total", "devices", "n"}


def _threshold_name(node: ast.AST) -> Optional[str]:
    name = terminal_name(node)
    if name is None:
        return None
    lowered = name.lower()
    if lowered.endswith(_THRESHOLD_SUFFIXES) \
            or lowered.startswith(_THRESHOLD_PREFIXES):
        return name
    return None


def _fractionish_name(node: ast.AST) -> Optional[str]:
    name = _threshold_name(node)
    if name is not None:
        return name
    name = terminal_name(node)
    if name is not None and "fraction" in split_name(name):
        return name
    return None


def _countish_name(node: ast.AST) -> Optional[str]:
    name = terminal_name(node)
    if name is None:
        return None
    if _COUNT_PARTS & set(split_name(name)):
        return name
    return None


def _contains_float(node: ast.AST) -> bool:
    """Does the expression contain a float literal or float() call?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value,
                                                          float):
            return True
        if isinstance(child, ast.Call) and \
                isinstance(child.func, ast.Name) and \
                child.func.id == "float":
            return True
    return False


class ExactFractionChecker(Checker):
    rule = "exact-fraction"
    description = ("flags float arithmetic and float() thresholds on "
                   "Fraction-exact health/freshness merge paths")
    invariant = ("FleetHealth freshness and SLO accumulators stay exact "
                 "Fraction until the encode boundary, so shard/process "
                 "merges are byte-identical and thresholds mean the "
                 "decimal the operator wrote")
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and terminal_name(node.func) == "Fraction" \
                    and len(node.args) == 1 and not node.keywords:
                name = _threshold_name(node.args[0])
                if name is not None:
                    yield ctx.finding(
                        self.rule, node,
                        f"Fraction({name}) embeds the binary float, not "
                        f"the decimal written in config; use "
                        f"Fraction(str({name}))")
                continue
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub)):
                target = terminal_name(node.target)
                if target is not None \
                        and "sum" in split_name(target) \
                        and _contains_float(node.value):
                    yield ctx.finding(
                        self.rule, node,
                        f"float value folded into exact accumulator "
                        f"{target!r}; convert via Fraction(...) first")
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                          ast.Mult):
                for left, right in ((node.left, node.right),
                                    (node.right, node.left)):
                    fraction = _fractionish_name(left)
                    count = _countish_name(right)
                    if fraction is not None and count is not None:
                        yield ctx.finding(
                            self.rule, node,
                            f"float target {fraction} * {count} is "
                            f"off-by-one-device near thresholds; "
                            f"compare Fraction({count.split('.')[-1]}, "
                            f"total) against Fraction(str({fraction})) "
                            f"instead")
                        break
