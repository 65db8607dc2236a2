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
