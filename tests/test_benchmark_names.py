"""Every program function the benchmark rebinds or calls by name exists.

`perfbench/tracer.py` wraps `homefetch.<module>.<function>` by name, and
`perfbench/workloads.py` counts sessions through one such name per workload
and patches `cli.run_batch` and `agent.follow_path`.  Every
`from homefetch.<module> import <name>` in `perfbench/*.py`, at any depth,
must resolve too.  A refactor that drops or renames one of them must fail
here, not only in the benchmark.  The files are read as source, not
imported.
"""
import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _assigned(tree: ast.Module, name: str):
    """Literal value of a module-level assignment."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned")


def _tracer_names() -> list[str]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    names = [f"{m}.{f}" for m, fns in _assigned(tree, "LAYERS").items()
             for f in fns]
    names += [f"{m}.{f}" for m, f in _assigned(tree, "EXTRA")]
    return names + list(_assigned(tree, "UNITS"))


def _workload_units() -> list[str]:
    """`unit = (module alias, "function")` of each workload class."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: a.name.removeprefix("homefetch.")
               for node in tree.body if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("homefetch.")}
    units = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["unit"]
                    and isinstance(node.value.elts[0], ast.Name)):
                module, fn = node.value.elts
                units.append(f"{aliases[module.id]}.{fn.value}")
    return units


NAMES = sorted(set(_tracer_names() + _workload_units()
                   + ["cli.run_batch", "agent.follow_path"]))


def test_every_workload_unit_is_read():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert len(_workload_units()) == len(bench["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_named_function_exists(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"homefetch.{module}"),
                            fn, None)), name


def _imported_names() -> list[str]:
    """`module.name` of every `from homefetch.<module> import <name>`."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("homefetch.")):
                module = node.module.removeprefix("homefetch.")
                names.update(f"{module}.{a.name}" for a in node.names)
    return sorted(names)


IMPORTED = _imported_names()


def test_function_level_imports_are_read():
    assert {"planner.grid_for", "session.run_session"} <= set(IMPORTED)


@pytest.mark.parametrize("name", IMPORTED)
def test_imported_name_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"homefetch.{module}"), attr), name
