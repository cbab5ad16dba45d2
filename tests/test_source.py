"""Properties of the library source itself."""

import ast
import pathlib

import wgfair


def test_library_has_no_assert_statements():
    # result guards must raise real errors: python -O strips assert statements
    paths = sorted(pathlib.Path(wgfair.__file__).parent.glob("*.py"))
    assert "anchored.py" in [p.name for p in paths]
    found = ["%s:%d" % (p.name, node.lineno)
             for p in paths for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
