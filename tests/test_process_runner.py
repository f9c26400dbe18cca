"""One process runner: ``CommandSimulator._invoke`` alone starts processes,
so every command runs in its own session, its stderr joins its stdout in
printed order, and every call, timed out or not, ends with the command's
whole process group killed."""

import ast
from pathlib import Path

import tbforge

SRC = Path(tbforge.__file__).parent
RUNNER = ("sim/backends.py", "CommandSimulator._invoke")
OS_STARTERS = ("system", "popen", "spawn", "posix_spawn", "fork", "exec")


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _calls_in(node, scope=""):
    """(qualified name of the enclosing class or function, call) for every
    call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls_in(child, inner)


def _starts_a_process(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
        return False
    module, name = func.value.id, func.attr
    return module == "subprocess" or (module == "os" and name.startswith(OS_STARTERS))


def test_only_the_command_simulator_starts_processes():
    starters = [(file, scope, ast.unparse(call.func))
                for file, tree in _sources()
                for scope, call in _calls_in(tree) if _starts_a_process(call)]
    assert [(file, scope) for file, scope, _ in starters] == [RUNNER], starters


def test_no_module_imports_a_process_starter_by_name():
    # ``from subprocess import run`` would hide a call from the check above.
    for file, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                assert node.module != "subprocess", file
                assert node.module != "os" or not any(
                    name.startswith(OS_STARTERS) for name in names), file
