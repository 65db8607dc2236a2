"""Layout rules of the library source that no linter here checks."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dgiga").glob("*.py"))


def test_no_source_line_is_over_100_characters():
    assert SOURCES
    long = [f"{path.name}:{n}" for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []


def unused_imports(source: str) -> list:
    """Names a module imports (``__future__`` aside) but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport itertools\nimport numpy as np\n" \
             "from .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["b (line 4)", "itertools (line 2)"]


def test_no_source_module_imports_a_name_it_does_not_use():
    # The package's __init__ imports its public names for its users.
    unused = {path.name: unused_imports(path.read_text()) for path in SOURCES
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def orphaned_helpers(sources: dict) -> list:
    """Private module-level functions and classes whose name no source loads (as a
    name or an attribute) outside their own definition."""
    defined, loaded = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = f"{module}:{node.lineno}"
                names.discard(node.name)  # a recursive call is no caller
            loaded |= names
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in loaded)


def test_orphaned_helpers_are_found():
    sources = {
        "a.py": "def _used():\n    pass\ndef _recursive():\n    return _recursive()\n"
                "class _Gone:\n    pass\ndef f():\n    return _used()\n",
        "b.py": "from . import a\ndef _attr():\n    pass\nx = a._attr\n",
    }
    assert orphaned_helpers(sources) == ["_Gone (a.py:5)", "_recursive (a.py:3)"]


def test_every_private_helper_has_a_caller():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert orphaned_helpers(sources) == []
