"""Every function ``liequant`` defines is named somewhere in the package: a
function only tests call is code no command reaches."""

import ast
from pathlib import Path

import liequant

SRC = Path(liequant.__file__).resolve().parent


def unnamed_functions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` for each non-dunder function or method the
    sources define whose name they never read: not as a name, an attribute
    or a whole string."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_function_is_named_in_the_package():
    sources = {str(path.relative_to(SRC)): path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert len(sources) > 10
    assert unnamed_functions(sources) == []


def test_unnamed_functions_are_found():
    sources = {
        "a.py": ("def used():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def dead():\n    '''helper and dead'''\n"
                 "class C:\n"
                 "    def __eq__(self, other):\n        return True\n"
                 "    def method(self):\n        return self.other()\n"
                 "    def other(self):\n        return getattr(self, 'by_string')\n"
                 "    def by_string(self):\n        return used\n"),
    }
    assert unnamed_functions(sources) == [("a.py", 5, "dead"), ("a.py", 10, "method")]
