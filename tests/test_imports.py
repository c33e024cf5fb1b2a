"""Every module-level import in src/, tests/ and scripts/ is used by its module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


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
