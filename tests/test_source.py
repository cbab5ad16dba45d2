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


def module_state(tree):
    """Line of every mutable display bound at module or class level, and of every cache.

    A display is a list, dict or set, or a comprehension of one, anywhere in
    the value of an assignment; a cache is any use of ``functools.cache``
    or ``functools.lru_cache``, under either name.
    """
    displays = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")
             or isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")]
    bodies = [tree.body]
    while bodies:
        for stmt in bodies.pop():
            if isinstance(stmt, (ast.ClassDef, ast.If, ast.Try, ast.With)):
                bodies += [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
                bodies += [handler.body for handler in getattr(stmt, "handlers", [])]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and stmt.value:
                found += [node.lineno for node in ast.walk(stmt.value)
                          if isinstance(node, displays)]
    return sorted(found)


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


def test_library_keeps_no_module_level_state():
    # every table and cache belongs to an instance: results never depend on
    # what an earlier call left behind, and memory goes with the instance
    found = ["%s:%d" % (name, line)
             for name, tree in library_trees() for line in module_state(tree)]
    assert found == []


def test_module_state_is_found_at_every_level():
    source = "\n".join([
        "import functools",                 # 1
        "NAMES = ('a', 'b')",               # 2
        "TABLE = {}",                       # 3
        "class C:",                         # 4
        "    seen: list = []",              # 5
        "    def f(self):",                 # 6
        "        local = [1]",              # 7
        "if NAMES:",                        # 8
        "    PAIRS = (1, {2})",             # 9
        "try:",                             # 10
        "    SQUARES = [i * i for i in NAMES]",  # 11
        "except ImportError:",              # 12
        "    SQUARES = {i: i for i in NAMES}",  # 13
        "@functools.lru_cache(None)",       # 14
        "def g(x):",                        # 15
        "    return x",                     # 16
        "from functools import cache",      # 17
        "h = cache(g)",                     # 18
    ])
    assert module_state(ast.parse(source)) == [3, 5, 9, 11, 13, 14, 18]
