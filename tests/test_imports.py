"""Every name a module of the package imports is used in that module,
every private name a module defines at its top level is read there, and
the modules' relative imports form no cycle.

The package `__init__.py` files are left out of the import checks: what
they import is their public interface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stockcast"
SOURCES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport json.decoder\n"
              "from a import b as c, d\nd(json)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(source: str) -> list[str]:
    """The module-level functions, classes and assigned names starting
    with `_` (dunders aside) that the module never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in loaded]


def test_finds_an_unused_private_name():
    source = ("__all__ = []\n_A = 1\n_B, c = 2, 3\n"
              "def _f():\n    return _A\n"
              "class _C:\n    pass\n"
              "def g():\n    _local = 4\n    return _f()\n")
    assert unused_private_names(source) == ["_B (line 3)", "_C (line 6)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_every_private_name(path):
    assert unused_private_names(path.read_text()) == []


def relative_imports(name: str, source: str) -> set[str]:
    """The dotted names of the modules that module `name`'s relative imports
    load, `TYPE_CHECKING` blocks and function bodies included."""
    package = name.split(".")[:-1]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) + 1 - node.level]
            found.update(".".join(base + [part]) for part in (
                [node.module] if node.module else [alias.name for alias in node.names]))
    return found


def import_cycle(sources: dict[str, str]) -> list[str]:
    """One cycle [a, b, ..., a] of the import graph among `sources` (dotted
    module name -> source), or [] if there is none."""
    graph = {name: sorted(relative_imports(name, source) & sources.keys())
             for name, source in sources.items()}
    acyclic = set()

    def visit(name, path):
        if name in path:
            return path[path.index(name):] + [name]
        if name not in acyclic:
            for imported in graph[name]:
                cycle = visit(imported, path + [name])
                if cycle:
                    return cycle
            acyclic.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name, [])
        if cycle:
            return cycle
    return []


def test_finds_an_import_cycle():
    sources = {
        "a": "from .b import x\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .sub.c import y\n",
        "sub.c": "from .. import a\nfrom ..errors import E\n",
        "d": "from .a import z\n",
    }
    assert import_cycle(sources) == ["a", "b", "sub.c", "a"]
    del sources["sub.c"]
    assert import_cycle(sources) == []


def test_package_has_no_import_cycle():
    sources = {".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text()
               for p in MODULES}
    assert import_cycle(sources) == []
