"""tbforge runs on click and the standard library: no module of the package
imports anything else, and the package declares nothing else. Every name a
module imports is used there, or exported by its package's ``__all__``."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"click", "tbforge"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_the_standard_library_and_click():
    sources = sorted((ROOT / "src" / "tbforge").rglob("*.py"))
    assert sources
    foreign = [f"{path.relative_to(ROOT)}:{lineno}: {module}"
               for path in sources for lineno, module in _absolute_imports(path)
               if module not in sys.stdlib_module_names and module not in ALLOWED]
    assert foreign == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and path.name == "__init__.py" and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(lineno, name) for name, lineno in imported.items() if name not in used]


def test_src_uses_every_name_it_imports():
    unused = [f"{path.relative_to(ROOT)}:{lineno}: {name}"
              for path in sorted((ROOT / "src" / "tbforge").rglob("*.py"))
              for lineno, name in _unused_imports(path)]
    assert unused == []


def test_runtime_dependencies_are_click_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["click>=8.1"]
