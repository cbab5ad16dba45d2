"""Maps whose squares or hom fibers fail, on both models.

Two double categories over one point, X and Y.  Level one has three arrows,
u, a and b, composing as the monoid with u neutral and every other product
b; X has no cells besides identities, Y one more cell a => b, and cells
compose by their endpoints.  The maps below and their images under
``f2.pi_star_map`` (points and units by the vertical component, arrows by
the horizontal one) must get the same verdicts on both sides.
"""

import pytest

from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg

U, A, B = 0, 1, 2


def monoid_double(cells):
    """The double category over one point whose cells are the identities and cells."""
    x0 = fc.discrete(1)
    x1 = fc.thin_from_preorder(3, [(U, U), (A, A), (B, B)] + cells)
    to_point = fc.FunctorMap(x1, x0, [0] * 3, [0] * x1.n_mor)
    s0 = fc.FunctorMap(x0, x1, [U], [x1.identity[U]])
    mor_id = {pair: m for m, pair in enumerate(zip(x1.src, x1.tgt))}

    def compose_obj(f, g):
        return g if f == U else f if g == U else B

    def compose_mor(m, n):
        return mor_id[(compose_obj(x1.src[m], x1.src[n]), compose_obj(x1.tgt[m], x1.tgt[n]))]

    return wg.from_generators(x0, x1, to_point, to_point, s0, compose_obj, compose_mor)


@pytest.fixture(scope="module")
def pair():
    return monoid_double([]), monoid_double([(A, B)])


@pytest.fixture(scope="module")
def fair_pair(pair):
    return tuple(f2.pi_star(x) for x in pair)


def test_both_instances_are_weakly_globular(pair, fair_pair):
    for x, d in zip(pair, fair_pair):
        assert wg.validate_catwg2(x) == []
        assert f2.validate_fairwg(d) == []


def test_a_map_failing_only_on_a_hom_fiber(pair, fair_pair):
    # identity on objects; the cell a => b of Y has no preimage, so the hom
    # fiber over the point is not full while pi1 is the same monoid on both
    x, y = pair
    fmap = wg.DoubleMap(x, y, fc.identity_functor(x.x0),
                        fc.FunctorMap(x.x1, y.x1, [U, A, B], [0, 1, 3]))
    image = f2.pi_star_map(fmap, *fair_pair)
    assert wg.validate_double_map(fmap) == []
    assert f2.validate_fair_map(image) == []
    want = {"hom_fiber_equivalences": False, "pi1_equivalence": True}
    for flags in (wg.is_2equivalence_double(fmap), f2.is_2equivalence_fair(image)):
        assert {key: flags[key] for key in want} == want
        assert not flags["is_2equivalence"]


def test_a_map_moving_the_unit_fails_the_unit_and_composition_squares(pair, fair_pair):
    # u goes to a: not the unit any more, and u.u = u goes to a while a.a = b
    _, y = pair
    _, dy = fair_pair
    fmap = wg.DoubleMap(y, y, fc.identity_functor(y.x0),
                        fc.FunctorMap(y.x1, y.x1, [A, A, B], [1, 1, 2, 3]))
    assert wg.validate_double_map(fmap) == [
        "identity square does not commute", "composition square does not commute"]
    assert f2.validate_fair_map(f2.pi_star_map(fmap, dy, dy)) == [
        "unit embedding square does not commute", "composition square does not commute"]
