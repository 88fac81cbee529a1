"""Every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tools", "demos", "tests")
# Its imports are a contract of their own: it imports every name the
# acceptance criteria rest on, used or not.
EXEMPT = {"tests/test_acceptance.py"}


def imported(tree):
    """(name, line) of each name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used(tree):
    """Names read as a ``Name`` or an ``arg`` (a pytest fixture), in a
    string annotation, or listed in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if rel in EXEMPT:
                continue
            tree = ast.parse(path.read_text())
            names = used(tree)
            unused += [f"{rel}:{line}: {name}" for name, line in imported(tree)
                       if name not in names]
    assert unused == []
