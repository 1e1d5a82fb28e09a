"""Rules on the package source itself."""

import ast
from pathlib import Path

import g2frob


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so none may serve as a runtime check
    found = []
    for path in sorted(Path(g2frob.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
