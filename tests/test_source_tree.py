"""Rules on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a runtime check written as
    # one vanishes; the package raises typed errors instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert list(SRC.rglob("*.py")), f"no package source under {SRC}"
    assert found == []
