"""Every way ``anchored.pi1`` and ``anchored.pi1_map`` refuse their input.

Both models reach these checks only through instances that already passed
their builders, where most of them cannot fail; the anchored data below is
made by hand so that each check fails on its own.  The same goes for the
section law of ``anchored.check_sections``.
"""

import pytest

from wgfair import anchored as an
from wgfair import fincat as fc

# the one-object category of Z/2: morphism 0 is the identity, 1 the generator
Z2 = fc.FinCat(1, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})


def anchored(points, arrows, src, tgt, composite):
    """Anchored data whose composition sends each pair (f, g) to composite(f, g).

    pi1 reads only the object part of the composition, so its morphism part
    sends every cell pair to the first identity.
    """
    pairs = fc.chain_fiber_product([arrows, arrows], [tgt], [src])
    comp = fc.FunctorMap(pairs.cat, arrows, [composite(*t) for t in pairs.obj_label],
                         [arrows.identity[0]] * pairs.cat.n_mor)
    return an.Anchored(points, arrows, src, tgt, pairs, comp)


def over_a_point(arrows, composite):
    """Every arrow is a loop at the one point, every cell over its identity."""
    point = fc.discrete(1)
    end = fc.FunctorMap(arrows, point, [0] * arrows.n_obj, [0] * arrows.n_mor)
    return anchored(point, arrows, end, end, composite)


def idempotent():
    """Arrows u and v over a point, u the unit and v composing to v."""
    return over_a_point(fc.discrete(2), lambda f, g: f | g)


def test_an_idempotent_descends():
    cat = an.pi1(idempotent(), [(0, 0)])[0]
    assert fc.validate_category(cat) == []
    assert (cat.n_obj, cat.n_mor, cat.identity) == (1, 2, (0,))
    assert cat.compose(1, 1) == 1


def test_units_in_two_classes_are_refused():
    with pytest.raises(ValueError, match="^unit classes disagree at point class 0$"):
        an.pi1(idempotent(), [(0, 0), (0, 1)])


def test_a_point_class_without_a_unit_is_refused():
    with pytest.raises(ValueError, match="^point class 0 has no unit$"):
        an.pi1(idempotent(), [])


def test_composition_that_depends_on_representatives_is_refused():
    # arrow 0 is alone, arrows 1 and 2 are isomorphic; (1, 1) and (1, 2)
    # lie over the same classes but compose to different ones
    arrows = fc.disjoint_union([fc.discrete(1), fc.chaotic(2)])[0]
    a = over_a_point(arrows, lambda f, g: 0 if (f, g) == (1, 1) else max(f, g))
    with pytest.raises(ValueError, match=r"^descended composition is not single-valued"
                                         r" at classes \(1, 1\)$"):
        an.pi1(a, [(0, 0)])


def test_pairs_that_are_not_isomorphic_over_the_same_classes_are_refused():
    # arrows 1 and 2 are isomorphic by cells that end over the generator of
    # Z/2, while arrow 0 starts over its identity: the pairs (1, 0) and
    # (2, 0) lie over the same classes but are not isomorphic
    arrows = fc.disjoint_union([fc.discrete(1), fc.chaotic(2)])[0]
    twisted = [int(arrows.src[m] != arrows.tgt[m]) for m in range(arrows.n_mor)]
    src = fc.FunctorMap(arrows, Z2, [0] * arrows.n_obj, [0] * arrows.n_mor)
    tgt = fc.FunctorMap(arrows, Z2, [0] * arrows.n_obj, twisted)
    assert fc.validate_functor(tgt) == []
    a = anchored(Z2, arrows, src, tgt, lambda f, g: 0)
    with pytest.raises(ValueError, match=r"^pairs level does not descend to the fiber"
                                         r" product of classes at \(1, 0\)$"):
        an.pi1(a, [(0, 0)])


def test_a_descended_table_that_is_not_a_category_is_refused():
    # u would be the unit, but u after u is v
    a = over_a_point(fc.discrete(2), lambda f, g: 1)
    with pytest.raises(ValueError, match="^descended category law fails: right identity law"
                                         " fails at morphism 0$"):
        an.pi1(a, [(0, 0)])


def test_a_map_that_moves_the_unit_is_not_functorial():
    a = idempotent()
    p = an.Pi1(*an.pi1(a, [(0, 0)]))
    to_v = fc.FunctorMap(a.arrows, a.arrows, [1, 1], [1, 1])
    with pytest.raises(ValueError, match="^induced map is not functorial: identity of object 0"
                                         " is not preserved$"):
        an.pi1_map(p, p, fc.identity_functor(a.points), to_v)


def test_a_section_that_is_no_left_inverse_is_refused():
    # the section of the identity embedding swaps the two objects
    two = fc.discrete(2)
    mu = fc.identity_functor(two)
    swap = fc.FunctorMap(two, two, [1, 0], [1, 0])
    with pytest.raises(ValueError, match="^section law fails for the cleavage strategy$"):
        an.check_sections([mu], [swap], "cleavage")
