"""Every module-level import in src/, tests/ and scripts/ is used by its
module, and every function, class and method src/ defines is referenced."""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that it never reads,
    counting the names listed in its `__all__` as read."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted(imported - used)


def test_the_scan_sees_unused_and_used_imports():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\nfrom e import f\n"
              "__all__ = ['f']\nprint(os, d)\n")
    assert unused_imports(source) == ["b", "osp"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read in tree: as a name, as an attribute, or
    as a string constant (`__all__` entries, attributes patched by name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def unreferenced_definitions(tree: ast.AST, read: Counter) -> list[str]:
    """The functions, classes and methods tree defines that `read` counts no
    more often than their own definitions read them; dunder methods, which
    Python calls itself, are exempt."""
    return sorted(
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and read[node.name] <= names_read(node)[node.name])


@cache
def names_read_anywhere() -> Counter:
    """Names read in src/, tests/, scripts/ and perfbench/."""
    read = Counter()
    for d in ("src", "tests", "scripts", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            read += names_read(ast.parse(path.read_text(encoding="utf-8")))
    return read


def test_the_scan_sees_unreferenced_definitions():
    source = ("def f():\n    return f()\n\ndef g():\n    pass\n\n"
              "class C:\n    def m(self):\n        return self.n()\n\n"
              "    def n(self):\n        pass\n\n    def __repr__(self):\n        return ''\n\n"
              "g()\n")
    tree = ast.parse(source)
    assert unreferenced_definitions(tree, names_read(tree)) == ["C", "f", "m"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unreferenced_definitions(tree, names_read_anywhere()) == []
