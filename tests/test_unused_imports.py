"""Every module-level import is read by its module.

CI runs no linter, so this AST scan is the check. It covers every
module under ``src/repro``, ``tests``, ``benchmarks`` and ``examples``
and skips package ``__init__.py`` files (their imports are
re-exports) and import statements marked ``# noqa``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/repro", "tests", "benchmarks", "examples")


def _read_names(tree):
    """Every name the module reads, plus the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(leaf.value for leaf in ast.walk(node.value)
                         if isinstance(leaf, ast.Constant))
    return names


def _unused_imports(path):
    """``(line, name)`` of each module-level import the module never
    reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read_names(tree)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                yield node.lineno, bound


def test_every_module_level_import_is_read():
    modules = [path for tree in TREES for path in (ROOT / tree).rglob("*.py")
               if path.name != "__init__.py"]
    assert len(modules) > 100
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sorted(modules)
              for line, name in _unused_imports(path)]
    assert unused == []


def test_scan_flags_an_unread_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nimport sys  # noqa\n"
                      "from typing import List, Optional\n"
                      "__all__ = ['Optional']\n")
    assert list(_unused_imports(module)) == [(1, "os"), (3, "List")]
