"""Source checks on the package itself."""

import ast
from pathlib import Path

import mcurve

PACKAGE = Path(mcurve.__file__).resolve().parent


def test_no_assert_in_package():
    # internal checks raise McurveError: an assert vanishes under python -O
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
