"""Rule ``constant-time``: secret material never meets ``==``.

The paper's verifier recomputes a MAC over the prover's response and
compares; an early-exit comparison leaks how many prefix bytes matched
(the classic HMAC timing oracle).  The repo funnels every such
comparison through :func:`repro.crypto.constant_time.constant_time_compare`
(or the backend's ``compare_digests``); this rule flags ``==`` / ``!=``
/ ``in`` / ``not in`` on values whose names say they hold MACs,
digests, tags, keys or other secret material anywhere else.  The same
comparisons spelled as functions are flagged too: the bound
``__eq__`` / ``__ne__`` / ``__contains__`` of a secret-named value
(``map(tags.__eq__, macs)``), and a call of ``operator.eq`` / ``ne`` /
``contains`` or of one of those dunders, directly or as the function
``map`` applies, with a secret-named operand.

Heuristics keeping the noise down:

* comparing against a ``str`` / number constant is benign — secret
  material is bytes, so those comparisons are over names and labels;
* identifiers whose last word is a label word (``mac_name``,
  ``digest_size``) are benign;
* a bare ``key`` variable is a dict key, not key material — only
  compound names (``device_key``) and attribute access
  (``enrollment.key``) count.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.statics.engine import (
    Checker, FileContext, Finding, split_name, terminal_name,
)

SECRET_PARTS = {
    "mac", "macs", "hmac", "digest", "digests", "secret", "secrets",
    "tag", "tags", "nonce", "nonces", "token", "tokens", "checksum",
}
BENIGN_LAST_PARTS = {
    "name", "names", "label", "labels", "algo", "algorithm",
    "algorithms", "id", "ids", "kind", "path", "type", "index",
    "count", "len", "length", "size", "mode", "format", "row", "rows",
    # Tables/collections keyed BY algorithm name, and structural words:
    # _HMAC_HASHES, _SMARTPLUS_MAC_KB, SECRET_PARTS are lookup tables,
    # not material.
    "hashes", "kb", "parts", "table", "tables", "registry",
}
_FLAGGED_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
#: The comparisons above as methods and as ``operator`` functions.
_DUNDER_OPS = {"__eq__": "==", "__ne__": "!=", "__contains__": "in"}
_OPERATOR_OPS = {"eq": "==", "ne": "!=", "contains": "in"}
#: The one module allowed to implement the comparison itself.
_EXEMPT_SUFFIXES = ("repro/crypto/constant_time.py",)


def _op_text(op: ast.cmpop) -> str:
    return {ast.Eq: "==", ast.NotEq: "!=", ast.In: "in",
            ast.NotIn: "not in"}[type(op)]


def _is_benign_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and not isinstance(node.value, (bytes, bytearray)))


def _secret_name(node: ast.AST) -> Optional[str]:
    """The secret-looking identifier behind an operand, if any."""
    name = terminal_name(node)
    if name is None:
        return None
    parts = split_name(name)
    if not parts or parts[-1] in BENIGN_LAST_PARTS:
        return None
    if any(part in SECRET_PARTS for part in parts):
        return name
    # A bare "key" variable is a dict key; "enrollment.key" is key
    # material.  Plural "keys" is a collection of dict keys unless the
    # name is compound (session_keys).
    if "key" in parts and (len(parts) > 1
                           or isinstance(node, (ast.Attribute,
                                                ast.Subscript))):
        return name
    if "keys" in parts and len(parts) > 1:
        return name
    return None


def _operator_imports(tree: ast.AST) -> Tuple[Set[str], Dict[str, str]]:
    """Names the ``operator`` module and its comparisons go by here.

    Returns the module's aliases (``import operator as op``) and a map
    from each imported comparison's local name to its operator text
    (``from operator import eq as same`` gives ``{"same": "=="}``).
    """
    modules: Set[str] = set()
    functions: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "operator")
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            functions.update((alias.asname or alias.name,
                              _OPERATOR_OPS[alias.name])
                             for alias in node.names
                             if alias.name in _OPERATOR_OPS)
    return modules, functions


def _comparison_function(node: ast.AST, modules: Set[str],
                         functions: Dict[str, str]) -> Optional[str]:
    """The operator text of a comparison used as a function, if any."""
    if isinstance(node, ast.Name):
        return functions.get(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr in _DUNDER_OPS:
            return _DUNDER_OPS[node.attr]
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            return _OPERATOR_OPS.get(node.attr)
    return None


class ConstantTimeChecker(Checker):
    rule = "constant-time"
    description = ("flags ==/!=/in (or __eq__/__ne__/__contains__, "
                   "operator.eq/ne/contains) on MAC/digest/key-named "
                   "values outside repro.crypto.constant_time")
    invariant = ("secret material (MACs, digests, keys) is compared "
                 "constant-time so the verifier leaks no prefix-match "
                 "timing — the paper's core threat model")
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.matches(*_EXEMPT_SUFFIXES):
            return
        modules, functions = _operator_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
            elif isinstance(node, ast.Attribute) and node.attr in _DUNDER_OPS:
                name = _secret_name(node.value)
                if name is not None:
                    yield self._finding(ctx, node, name, node.attr)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, modules, functions)

    def _finding(self, ctx: FileContext, node: ast.AST, name: str,
                 how: str) -> Finding:
        return ctx.finding(
            self.rule, node,
            f"{name!r} compared with {how!r}; secret material must go "
            f"through the crypto backend's compare_digests / "
            f"constant_time_compare")

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    modules: Set[str],
                    functions: Dict[str, str]) -> Iterator[Finding]:
        """A comparison called as a function, directly or through map."""
        function, operands = node.func, node.args
        if isinstance(function, ast.Name) and function.id == "map" \
                and operands:
            function, operands = operands[0], operands[1:]
        op = _comparison_function(function, modules, functions)
        if op is None or any(map(_is_benign_constant, operands)):
            return
        if isinstance(function, ast.Attribute) and \
                function.attr in _DUNDER_OPS and \
                _secret_name(function.value) is not None:
            return  # already flagged at the attribute itself
        for operand in operands:
            name = _secret_name(operand)
            if name is not None:
                yield self._finding(ctx, node, name, op)
                return

    def _check_compare(self, ctx: FileContext,
                       node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        if any(_is_benign_constant(operand) for operand in operands):
            return
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, _FLAGGED_OPS):
                continue
            name = _secret_name(left) or _secret_name(right)
            if name is None:
                continue
            yield self._finding(ctx, node, name, _op_text(op))
            return  # one finding per Compare node is enough
