"""Runtime checks in the package must survive ``python -O``.

``assert`` statements are stripped under -O, so internal checks raise the
typed errors of ``owalk.errors`` instead.
"""

import ast
from pathlib import Path

import owalk

PACKAGE_DIR = Path(owalk.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in owalk: {found}"
