"""Every module uses every name it imports.

No linter runs on this repository, so this test stands in for the
unused-import check: for each module of `src/homefetch/` and of `tests/`,
every name bound by an import must be read somewhere in the module.  A
string annotation such as `"TaskSpec"` counts as a read of the names it
holds.  The files are read as source, not imported.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "homefetch").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _read(ast.parse(n.value, mode="eval"))
    return used


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _read(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(_imported(tree).items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_what_it_guards():
    """An unused import is reported; a use in code or in a string
    annotation is not; a name in a plain string is no use."""
    assert _unused("import hashlib\n") == ["hashlib (line 1)"]
    assert _unused("from os import path as p\nx = p.sep\n") == []
    assert _unused("import os.path\nos.sep\n") == []
    assert _unused("from typing import TYPE_CHECKING\n"
                   "if TYPE_CHECKING:\n    from .taskgen import TaskSpec\n"
                   "def f(t: \"TaskSpec\") -> None: ...\n") == []
    assert _unused("from dataclasses import replace\n"
                   "KIND = 'replace'\n") == ["replace (line 1)"]
    assert _unused("from __future__ import annotations\n") == []
