"""No public API kept only for tests: every top-level function and class of
the package, except the click commands of ``cli.py``, is named in ``src/``
or ``bench/`` besides its own definition. Names are matched as whole words
over the files' text, so a docstring mention counts as a use; the text of
``__init__.py`` files is skipped, so a re-export list is not a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tbforge"


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and isinstance(d.func.value, ast.Name) and d.func.value.id == "cli"
               and d.func.attr == "command" for d in node.decorator_list)


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if path.name == "cli.py" and _is_click_command(node):
                continue
            yield f"{path.relative_to(ROOT)}:{node.lineno}", node.name


def test_every_top_level_definition_is_named_outside_itself():
    words = Counter()
    for top in ("src", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    definitions = list(_definitions())
    defined = Counter(name for _, name in definitions)
    unused = [f"{where}: {name}" for where, name in definitions
              if words[name] <= defined[name]]
    assert unused == []
