"""Every name a module under ``src/`` imports is used by that module.

A package ``__init__.py`` imports names to re-export them, so it is
skipped.  A name used only inside a string annotation (an import under
``TYPE_CHECKING`` for a forward reference) counts as used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source):
    """Names ``source`` binds by import but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    used = _used_names(tree)
    return [f"line {line}: {name}" for line, name in imported
            if name not in used]


def test_detector_sees_string_annotations_and_misses_nothing():
    source = ("from typing import TYPE_CHECKING, Callable, Optional\n"
              "if TYPE_CHECKING:\n"
              "    from x import Observed\n"
              "def f(obs: Optional['Observed']) -> None: ...\n")
    assert unused_imports(source) == ["line 1: Callable"]


def test_no_module_imports_a_name_it_never_uses():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        problems += [f"{path.relative_to(SRC)} {finding}"
                     for finding in unused_imports(path.read_text())]
    assert problems == []
