"""Malformed input to the index shapes and to ``fincat`` is refused by name.

Every instance the models build passes these checks, so each case below
makes its input by hand to fail exactly one of them, and the message is
matched in full.  The checks are plain raises, not asserts, so they hold
under ``python -O`` as well.
"""

import re

import pytest

from wgfair import anchored as an
from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg

o = ds.parse_ordinal

# objects 0 and 1, morphisms id0, id1 and a : 0 -> 1
ARROW = dict(n_obj=2, src=(0, 1, 0), tgt=(0, 1, 1), identity=(0, 1),
             comp={(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})


def category(**changes):
    """The free arrow with some of its tables replaced."""
    return fc.FinCat(**{**ARROW, **changes})


def identities(*sizes):
    return [fc.identity_functor(fc.discrete(n)) for n in sizes]


def by_rule():
    """The point, composing by rule instead of by table."""
    return fc.FinCat(1, (0,), (0,), (0,), rule=lambda g, f: 0)


def terminal():
    return wg.generate_random_wg(0, 1, 1)[0]


def pairs_of_points():
    """The pairs of the point with itself, a chain product composing by rule."""
    ident = fc.identity_functor(fc.discrete(1))
    return fc.chain_fiber_product([fc.discrete(1)] * 2, [ident], [ident]).cat


def fair_terminal():
    return f2.pi_star(terminal())


RANK = "rank 'a' has no chain of composable tuples (ranks 1 to 3 do)"
HOM = "objects %r, %r are not both among the 2 objects"


RAISES = [
    ("simplex map values", lambda: ds.SimplexMap(1, 1, (0,)),
     "need one value per source index"),
    ("simplex maps not composable", lambda: ds.compose_simplex(ds.coface(0, 1), ds.coface(0, 2)),
     "ordinal maps are not composable"),
    ("no dots", lambda: ds.ColoredOrdinal(0, ()), "at least one dot is required"),
    ("colored edge", lambda: ds.ColoredOrdinal(2, {1}), "colored edge out of range"),
    ("dot map values", lambda: ds.validate_fat_map(o("o"), o("o-o"), (0, 1)),
     "need one value per source dot"),
    ("dot value", lambda: ds.validate_fat_map(o("o"), o("o"), (1,)), "dot value out of range"),
    ("dot map repeats", lambda: ds.FatMap(o("o-o"), o("o-o"), (1, 1)),
     "dot map is not strictly increasing at edge 0"),
    ("colored maps not composable",
     lambda: ds.compose_fat(ds.fat_identity(o("o")), ds.fat_identity(o("o-o"))),
     "colored maps are not composable"),
    ("category tables", lambda: fc.validate_category(category(tgt=(0, 1))),
     "table lengths disagree"),
    ("functors not composable", lambda: fc.compose_functors(*identities(1, 2)),
     "functors are not composable"),
    ("functors not parallel", lambda: fc.validate_nat(fc.NatTransf(*identities(1, 2), (0,))),
     "the two functors are not parallel"),
    ("chain constraints", lambda: fc.chain_fiber_product([fc.discrete(1)] * 2, [], []),
     "a chain of 2 factors needs 1 constraint pairs"),
    ("simplex map entry", lambda: ds.SimplexMap(1, 2, ("a", 1)),
     "the simplex map holds an entry that is not an id"),
    ("simplex map fraction", lambda: ds.SimplexMap(1, 2, (0.5, 1)),
     "the simplex map holds an entry that is not an id"),
    ("simplex map rank", lambda: ds.SimplexMap(None, 2, (0, 1)),
     "the simplex map holds an entry that is not an id"),
    ("dot count", lambda: ds.ColoredOrdinal("3", frozenset()),
     "the colored ordinal holds an entry that is not an id"),
    ("colored edge fraction", lambda: ds.ColoredOrdinal(3, {0.5}),
     "the colored ordinal holds an entry that is not an id"),
    ("dot map entry", lambda: ds.FatMap(o("o"), o("o-o"), ("x",)),
     "the dot map holds an entry that is not an id"),
    ("ordinal text", lambda: ds.parse_ordinal(3), "malformed ordinal text 3"),
    ("preorder size", lambda: fc.thin_from_preorder("2", [(0, 0), (1, 1)]),
     "n must be at least 0, not '2'"),
    ("preorder entry", lambda: fc.thin_from_preorder(2, [("a", 0)]),
     "pair ('a', 0) is outside 0..1"),
    ("preorder fraction", lambda: fc.thin_from_preorder(2, [(0, 0), (1, 1), (0.5, 1)]),
     "pair (0.5, 1) is outside 0..1"),
    ("inverse of a non-id", lambda: fc.discrete(2).inverse("a"),
     "morphism 'a' is not one of the 2 morphisms"),
    ("composite of a non-id", lambda: category().compose("a", 0),
     "morphisms 'a' after 0 are not composable"),
    ("composite of a fraction", lambda: category().compose(0.5, 0),
     "morphisms 0.5 after 0 are not composable"),
    ("rule composite of a non-id", lambda: by_rule().compose("a", 0),
     "morphisms 'a' after 0 are not composable"),
    ("rule composite of a fraction", lambda: by_rule().compose(0, 0.5),
     "morphisms 0 after 0.5 are not composable"),
    ("chain rank", lambda: terminal().chain("a"), RANK),
    ("level rank", lambda: terminal().level("a"), RANK),
    ("level map rank", lambda: wg.level_map(wg.identity_double_map(terminal()), "a"), RANK),
    ("point class", lambda: an.hom_fiber(f2.pi_star(terminal()).p, "a", 0),
     "point class 'a' is not one of the 1 point classes"),
    ("point class fraction", lambda: f2.hom_fiber_fair(f2.pi_star(terminal()), 0, 0.5),
     "point class 0.5 is not one of the 1 point classes"),
    ("fiber bound", lambda: wg.generate_random_wg(1, max_fiber="2"),
     "max_fiber must be at least 1, not '2'"),
    ("fiber bound fraction", lambda: wg.generate_random_wg(1, max_fiber=1.5),
     "max_fiber must be at least 1, not 1.5"),
    ("unhashable composite", lambda: category().compose([0], 0),
     "morphisms [0] after 0 are not composable"),
    ("unhashable rule composite", lambda: by_rule().compose(0, [0]),
     "morphisms 0 after [0] are not composable"),
    ("unhashable product composite", lambda: pairs_of_points().compose([0], 0),
     "morphisms [0] after 0 are not composable"),
    ("unhashable inverse", lambda: category().inverse([0]),
     "morphism [0] is not one of the 3 morphisms"),
    ("unhashable product inverse", lambda: pairs_of_points().inverse([0]),
     "morphism [0] is not one of the 1 morphisms"),
    ("unhashable hom", lambda: category().hom([0], 1), HOM % ([0], 1)),
    ("hom out of range", lambda: category().hom(5, 7), HOM % (5, 7)),
    ("hom of a non-id", lambda: category().hom("a", 0), HOM % ("a", 0)),
    ("unhashable subcategory object", lambda: fc.full_subcategory(category(), [[0]]),
     "object [0] is not among the 2 objects of the category"),
    ("shape text", lambda: fair_terminal().chain("o-o"), "'o-o' is not a colored ordinal"),
    ("unhashable shape", lambda: fair_terminal().chain([1]), "[1] is not a colored ordinal"),
    ("level shape text", lambda: fair_terminal().level("o"), "'o' is not a colored ordinal"),
    ("action map text", lambda: fair_terminal().action("x"), "'x' is not a colored map"),
    ("class chain shape text", lambda: f2.class_chain(fair_terminal(), "o-o-o"),
     "'o-o-o' is not a colored ordinal"),
    ("fair level map shape text",
     lambda: f2.level_map_fair(f2.identity_fair_map(fair_terminal()), "o-o"),
     "'o-o' is not a colored ordinal"),
    ("nerve action map text", lambda: terminal().nerve_action("x"), "'x' is not an ordinal map"),
    ("unhashable nerve action map", lambda: terminal().nerve_action([1]),
     "[1] is not an ordinal map"),
    ("no item", lambda: an.only([]), "expected exactly one item, found []"),
    ("two items", lambda: an.only([3, 4]), "expected exactly one item, found [3, 4]"),
]


@pytest.mark.parametrize("make, message", [c[1:] for c in RAISES], ids=[c[0] for c in RAISES])
def test_malformed_input_is_refused_with_its_message(make, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make()


def test_malformed_category_reports_each_broken_law():
    # object 0's identity is the arrow a : 0 -> 1
    assert fc.validate_category(category(identity=(2, 1)))[0] == \
        "identity of object 0 is not an endomorphism of it"
    # a after id0 is recorded as id0
    assert "composite 0 of (2, 0) has wrong endpoints" in \
        fc.validate_category(category(comp={**ARROW["comp"], (2, 0): 0}))
    assert fc.validate_category(category()) == []


def test_refusals_leave_the_hits_alone():
    # an empty hom set between objects is still empty, and a refused value
    # leaves the caches answering as before
    cat = category()
    assert cat.hom(1, 0) == () and cat.hom(0, 1) == (2,)
    d = fair_terminal()
    pairs = d.chain(o("o-o-o"))
    with pytest.raises(ValueError):
        d.chain([1])
    assert d.chain(o("o-o-o")) is pairs and d.level(o("o")) is d.p.points
    x = terminal()
    unit = x.nerve_action(ds.codegeneracy(0, 1))
    with pytest.raises(ValueError):
        x.nerve_action([1])
    assert x.nerve_action(ds.codegeneracy(0, 1)) is unit
