"""Every module-level import in ``liequant`` is used: an import nothing reads
costs every job its import time and hides dead code."""

import ast
from pathlib import Path

import liequant

SRC = Path(liequant.__file__).resolve().parent


def unused_imports(source: str, package: bool = False) -> list[tuple[int, str]]:
    """``(line, name)`` for each name a module's top-level imports bind and
    the module never reads; a package ``__init__`` also reads its ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if package:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_module_level_import_is_used():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    assert [(str(path.relative_to(SRC)), line, name) for path in modules
            for line, name in unused_imports(path.read_text(), path.name == "__init__.py")
            ] == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from math import comb, lcm as least\n"
              "def f(x: json.JSONDecoder):\n"
              "    return os.path.join(x, str(comb(2, 1)))\n")
    assert unused_imports(source) == [(4, "least")]
    assert unused_imports(source.replace("json.JSONDecoder", "str")) == [(2, "json"), (4, "least")]
    package = "from .core import comb, lcm\n__all__ = ['comb']\n"
    assert unused_imports(package, package=True) == [(1, "lcm")]
    assert unused_imports(package) == [(1, "comb"), (1, "lcm")]
