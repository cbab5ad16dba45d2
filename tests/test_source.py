"""Properties of the library source itself."""

import ast
import pathlib

import wgfair


def library_trees():
    """(file name, syntax tree) of every module of the library."""
    paths = sorted(pathlib.Path(wgfair.__file__).parent.glob("*.py"))
    assert "anchored.py" in [p.name for p in paths]
    return [(p.name, ast.parse(p.read_text(), str(p))) for p in paths]


def unreachable(tree):
    """Line of every statement after a return, raise, continue or break in its own block."""
    jumps = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    return [block[i + 1].lineno
            for node in ast.walk(tree)
            for block in (getattr(node, field, None) for field in ("body", "orelse", "finalbody"))
            if isinstance(block, list)
            for i, stmt in enumerate(block[:-1]) if isinstance(stmt, jumps)]


def test_library_has_no_assert_statements():
    # result guards must raise real errors: python -O strips assert statements
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in library_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unreachable_statements():
    found = ["%s:%d" % (name, line) for name, tree in library_trees() for line in unreachable(tree)]
    assert found == []


def test_unreachable_statements_are_found_in_every_kind_of_block():
    source = "\n".join([
        "def f(x):",            # 1
        "    for y in x:",      # 2
        "        continue",     # 3
        "        y += 1",       # 4
        "    else:",            # 5
        "        pass",         # 6
        "    try:",             # 7
        "        raise E",      # 8
        "        x = 1",        # 9
        "    except E:",        # 10
        "        return 2",     # 11
        "        x = 2",        # 12
        "    while x:",         # 13
        "        break",        # 14
        "    return x",         # 15
        "    x = 3",            # 16
    ])
    assert sorted(unreachable(ast.parse(source))) == [4, 9, 12, 16]
