"""tbforge runs on click and the standard library: no module of the package
imports anything else, and the package declares nothing else."""

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


def test_runtime_dependencies_are_click_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["click>=8.1"]
