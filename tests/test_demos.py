import ast
import importlib
import types
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def is_stockcast(name):
    return bool(name) and name.split(".")[0] == "stockcast"


def imported_modules(tree, path):
    """Check every `from stockcast... import` name, and map each local name
    bound to a stockcast module (`import stockcast.x as y`, or a module
    taken by `from stockcast.x import y`) to that module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if is_stockcast(alias.name):
                    module = importlib.import_module(alias.name)
                    if alias.asname is None:  # `import a.b` binds `a`
                        module = importlib.import_module("stockcast")
                    modules[alias.asname or "stockcast"] = module
        elif isinstance(node, ast.ImportFrom) and is_stockcast(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                value = getattr(module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    return modules


def module_of(node, modules):
    """The stockcast module an expression such as `ad` or `stockcast.nn` names, else None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        value = getattr(module_of(node.value, modules), node.attr, None)
        return value if isinstance(value, types.ModuleType) else None
    return None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # the demos run for minutes, so only their stockcast names are checked
    # here: the imported names and the attributes used of imported modules
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.ImportFrom) and is_stockcast(node.module)
               for node in ast.walk(tree))
    modules = imported_modules(tree, path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = module_of(node.value, modules)
            if owner is not None:
                assert hasattr(owner, node.attr), f"{path.name}: {owner.__name__}.{node.attr}"
