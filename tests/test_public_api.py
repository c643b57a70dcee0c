"""Every exported function is reached by the program or documented.

A function in ``owalk.__all__`` that no module of ``src/owalk`` calls
outside its own definition, and that the README does not name, is code
only its tests reach; it should leave the package instead.
"""

import ast
import inspect
import re
from pathlib import Path

import owalk

SRC = Path(owalk.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _calls_outside_own_definition(tree: ast.Module) -> set[str]:
    calls: set[str] = set()

    def visit(node: ast.AST, enclosing: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name if enclosing is None else enclosing
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != enclosing:
                calls.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, None)
    return calls


def test_exported_functions_are_called_or_documented():
    called: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        called |= _calls_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    readme = README.read_text(encoding="utf-8")
    functions = [name for name in owalk.__all__ if inspect.isfunction(getattr(owalk, name))]
    assert functions
    orphans = [
        name
        for name in functions
        if name not in called and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == [], f"exported, never called in src/owalk and not in the README: {orphans}"
