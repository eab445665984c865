"""No statement of the package is a bare ``assert``.

``python -O`` strips ``assert`` statements, so a correctness guard written
as one would silently vanish; guards raise an exception instead.
"""

import ast
from pathlib import Path

import pgl3chow

SRC = Path(pgl3chow.__file__).resolve().parent


def test_no_assert_statements_in_src():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
