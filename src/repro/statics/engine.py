"""Core of the invariant lint engine: findings, pragmas, file scanning.

The engine is deliberately small: each file is read and parsed once,
every active :class:`Checker` walks the same AST, and the resulting
:class:`Finding`s are filtered through same-line / preceding-line
``# statics: ok(<rule>)`` pragmas before they reach the report layer.
Nothing here imports the rest of ``repro`` — the engine must be able
to lint a broken tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Rule id used for files the engine itself could not process.
PARSE_RULE = "parse"
#: Rule id used for pragmas naming a rule the engine does not know.
PRAGMA_RULE = "pragma"

_PRAGMA_RE = re.compile(r"#\s*statics:\s*ok\(([^)]*)\)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule, message) so sorted findings —
    and therefore the JSON report — are byte-stable for a given tree.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def to_row(self) -> Dict[str, object]:
        """JSON-friendly row (plain types, stable key order via sort)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        """The classic ``path:line:col: rule: message`` lint line."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")


class FileContext:
    """Everything a checker needs to know about one source file."""

    def __init__(self, path: Path, relpath: str, text: str,
                 tree: ast.AST) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        name = path.name
        self.is_test = ("tests" in relpath.split("/")
                        or name.startswith("test_")
                        or name == "conftest.py")

    def matches(self, *suffixes: str) -> bool:
        """True when the file's posix relpath ends with any suffix."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)

    def finding(self, rule: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(path=self.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule, message=message, severity=severity)


class Checker:
    """Base class for one invariant rule.

    Subclasses set :attr:`rule` (the id pragmas and baselines use),
    :attr:`description` (one line, for ``--list-rules``) and
    :attr:`invariant` (the repo/paper invariant the rule protects, for
    the catalog), then implement :meth:`check`.  A rule that needs the
    whole tree also implements :meth:`finish`.
    """

    rule: str = ""
    description: str = ""
    invariant: str = ""
    #: Rules whose point is adversary-facing production code skip test
    #: files (a test asserting ``mac == expected`` is the test's job).
    applies_to_tests: bool = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test and not self.applies_to_tests:
            return iter(())
        return self.check(ctx)

    def finish(self) -> Iterator[Finding]:
        """Cross-file findings, once every file has been checked."""
        return iter(())


def split_name(name: str) -> List[str]:
    """Lower-cased word parts of an identifier (``device_key`` → ...)."""
    return [part for part in re.split(r"[^a-zA-Z0-9]+", name.lower())
            if part]


def dotted_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (empty for non-name chains)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier a comparison operand answers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            return index.value
        return terminal_name(node.value)
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return None


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

def parse_pragmas(text: str) -> Dict[int, Set[str]]:
    """Map source line number → rules suppressed on that line.

    Pragmas live in real comments only — tokenize finds them, so a
    docstring *describing* the pragma syntax does not suppress
    anything.  A pragma at the end of a code line covers that line; a
    pragma on a comment-only line covers the *next* line (for
    statements too long to carry a trailing comment).  ``ok(*)``
    suppresses every rule.  Text after the rule list (``—
    justification``) is free-form.
    """
    suppressed: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        rules = {rule.strip() for rule in match.group(1).split(",")
                 if rule.strip()}
        line = token.start[0]
        own_line = token.line.lstrip().startswith("#")
        target = line + 1 if own_line else line
        suppressed.setdefault(target, set()).update(rules)
    return suppressed


# ----------------------------------------------------------------------
# Scanning
# ----------------------------------------------------------------------

@dataclass
class ScanResult:
    """Outcome of one engine run over a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    checkers: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if path.is_dir():
            yield from sorted(
                candidate for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts))


def _relpath(path: Path, relative_to: Path) -> str:
    try:
        return path.resolve().relative_to(relative_to.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_checks(ctx: FileContext, checkers: Sequence[Checker],
               known_rules: Optional[Set[str]] = None
               ) -> tuple[List[Finding], int]:
    """Run every checker over one parsed file, applying pragmas.

    Returns ``(findings, suppressed_count)``.  Pragmas naming a rule
    outside ``known_rules`` produce a ``pragma`` finding of their own —
    a stale suppression is itself a defect.
    """
    pragmas = parse_pragmas(ctx.text)
    raw: List[Finding] = []
    for checker in checkers:
        raw.extend(checker.run(ctx))
    if known_rules:
        for line, rules in sorted(pragmas.items()):
            for rule in sorted(rules):
                if rule != "*" and rule not in known_rules:
                    raw.append(Finding(
                        path=ctx.relpath, line=line, col=0,
                        rule=PRAGMA_RULE,
                        message=f"pragma suppresses unknown rule "
                                f"{rule!r}"))
    return _apply_pragmas(raw, pragmas)


def _apply_pragmas(raw: Iterable[Finding], pragmas: Dict[int, Set[str]]
                   ) -> tuple[List[Finding], int]:
    findings: List[Finding] = []
    suppressed = 0
    for finding in raw:
        allowed = pragmas.get(finding.line, ())
        if finding.rule in allowed or "*" in allowed:
            suppressed += 1
        else:
            findings.append(finding)
    return findings, suppressed


def scan_paths(paths: Sequence[Path], checkers: Sequence[Checker],
               baseline: Optional["Baseline"] = None,
               relative_to: Optional[Path] = None) -> ScanResult:
    """Lint every Python file under ``paths`` with the given checkers."""
    from repro.statics.baseline import Baseline  # cycle-free at runtime
    root = relative_to if relative_to is not None else Path.cwd()
    known = {checker.rule for checker in checkers}
    result = ScanResult(checkers=sorted(known))
    collected: List[Finding] = []
    texts: Dict[str, str] = {}
    for path in iter_python_files(paths):
        relpath = _relpath(path, root)
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            collected.append(Finding(path=relpath, line=line, col=0,
                                     rule=PARSE_RULE,
                                     message=f"could not parse: {exc}"))
            result.files_scanned += 1
            continue
        texts[relpath] = text
        ctx = FileContext(path, relpath, text, tree)
        findings, suppressed = run_checks(ctx, checkers, known_rules=known)
        collected.extend(findings)
        result.suppressed += suppressed
        result.files_scanned += 1
    late: Dict[str, List[Finding]] = {}
    for checker in checkers:
        for finding in checker.finish():
            late.setdefault(finding.path, []).append(finding)
    for relpath, raw in late.items():
        findings, suppressed = _apply_pragmas(
            raw, parse_pragmas(texts[relpath]))
        collected.extend(findings)
        result.suppressed += suppressed
    collected.sort()
    if baseline is None:
        baseline = Baseline()
    for finding in collected:
        if baseline.matches(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result
