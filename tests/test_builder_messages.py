"""Every law check of the two builders fails with its own message.

``wgdouble.from_generators`` and ``fair2.from_presentation`` assemble an
instance from generating data and raise ValueError at the first law that
fails.  Each case below is the smallest input that breaks exactly one of
those checks, so a refactoring of the builders has to keep every message
and every witness.
"""

import itertools

import pytest

from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg


def z2():
    """The group of order two as a one-object category."""
    return fc.FinCat(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})


def const(source, target, x=0):
    """The functor sending everything to object x and its identity."""
    return fc.FunctorMap(source, target, [x] * source.n_obj,
                         [target.identity[x]] * source.n_mor)


def first(u, v):
    return u


def second(u, v):
    return v


def zero(u, v):
    return 0


def missing(u, v):
    """A composite looked up in a table that lacks it."""
    return {}.get((u, v))


# -- weakly globular double categories ----------------------------------------


def double_empty_base():
    x0, x1 = fc.discrete(0), fc.discrete(1)
    return (x0, x1, const(x1, fc.discrete(1)), const(x1, fc.discrete(1)),
            fc.FunctorMap(x0, x1, [], []), first, first)


def double_wrong_endpoints():
    x0, x1 = fc.discrete(1), fc.discrete(1)
    return (x0, x1, const(fc.discrete(2), x0), const(x1, x0), const(x0, x1), zero, zero)


def double_not_a_functor():
    # the identity of the one arrow goes to an endomorphism of the wrong point
    x0, x1 = fc.discrete(2), fc.discrete(1)
    return (x0, x1, fc.FunctorMap(x1, x0, [0], [1]), const(x1, x0), const(x0, x1),
            zero, zero)


def double_target_map(obj_map, mor_map):
    x0 = x1 = fc.discrete(1)
    return (x0, x1, fc.FunctorMap(x1, x0, obj_map, mor_map), const(x1, x0), const(x0, x1),
            zero, zero)


def double_not_a_section(end):
    x0 = x1 = fc.discrete(2)
    one, swap = fc.identity_functor(x1), fc.FunctorMap(x0, x1, [1, 0], [1, 0])
    d0, d1 = (swap, one) if end == "target" else (one, swap)
    return x0, x1, d0, d1, one, first, first


def double_composition_not_functorial():
    x0, x1 = fc.discrete(1), z2()
    return (x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), zero,
            lambda m, n: 1)


def double_data_composing(compose_obj, compose_mor):
    x0 = x1 = fc.discrete(1)
    return x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), compose_obj, compose_mor


def double_composite_endpoints():
    # arrow i sits at point i; composing swaps the two
    x0 = x1 = fc.discrete(2)
    one = fc.identity_functor(x1)
    return x0, x1, one, one, one, lambda f, g: 1 - f, lambda m, n: 1 - m


def double_unit_law(side):
    x0, x1 = fc.discrete(1), fc.discrete(2)
    co = first if side == "left" else second
    return x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), co, co


def double_unit_law_on_a_cell():
    # arrows and their identities compose lawfully; the cell 1 does not
    x0, x1 = fc.discrete(1), z2()
    return x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), zero, zero


def three_cells(products):
    """One object, cells 0 (the identity), 1 and 2; products maps the pairs of 1 and 2."""
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2}
    table.update(products)
    return fc.FinCat(1, (0, 0, 0), (0, 0, 0), (0,), table)


def lookup(products):
    """Composition of cells by three_cells' table: 0 is neutral, products the rest."""
    return lambda m, n: n if m == 0 else m if n == 0 else products[(m, n)]


# vertical composition of these cells does not associate at (1, 1, 1), while
# their horizontal composition is lawful
NOT_ASSOCIATIVE = {(1, 1): 2, (1, 2): 2, (2, 1): 1, (2, 2): 1}
HORIZONTAL = {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2}


def z2_missing():
    """Z/2 with the composite of 1 after 1 left out."""
    return fc.FinCat(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1})


def malformed():
    """One object whose identity is out of range."""
    return fc.FinCat(1, (0,), (0,), (5,), {(0, 0): 0})


def double_level(x0, x1, compose_mor=zero):
    """One-point generating data over levels x0 and x1; every arrow composes to arrow 0."""
    return x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), zero, compose_mor


def double_not_associative():
    # e is the unit; (p.p).q = q while p.(p.q) = p
    x0, x1 = fc.discrete(1), fc.discrete(3)

    def co(u, v):
        if u == 0:
            return v
        if v == 0:
            return u
        return 0 if (u, v) == (1, 2) else 1

    return x0, x1, const(x1, x0), const(x1, x0), const(x0, x1), co, co


DOUBLE_CASES = [
    ("empty base", double_empty_base, "level zero is empty but level one is not"),
    ("level zero malformed", lambda: double_level(malformed(), fc.discrete(1)),
     "^level zero is not a category: identity table out of range$"),
    ("level one not associative",
     lambda: double_level(fc.discrete(1), three_cells(NOT_ASSOCIATIVE), lookup(HORIZONTAL)),
     r"^level one is not a category: associativity fails on \(1, 1, 1\)$"),
    ("level one missing a composite", lambda: double_level(fc.discrete(1), z2_missing()),
     "^level one is not a category: composite of 1 after 1 is missing$"),
    ("wrong endpoints", double_wrong_endpoints, "target map has wrong endpoints"),
    ("not a functor", double_not_a_functor,
     r"target map is not a functor: morphism 0 is not sent"),
    ("target map entry not an id", lambda: double_target_map([None], [0]),
     "^target map is not a functor: the object map holds an entry that is not an id$"),
    ("target map out of range", lambda: double_target_map([5], [0]),
     "^target map is not a functor: object map out of range$"),
    ("source section", lambda: double_not_a_section("source"),
     "identity map is not a section of the source map"),
    ("target section", lambda: double_not_a_section("target"),
     "identity map is not a section of the target map"),
    ("composition functor", double_composition_not_functorial,
     "composition is not functorial: identity of object 0 is not preserved"),
    ("composite arrow missing",
     lambda: double_data_composing(missing, zero),
     "^composition is not functorial: the object map holds an entry that is not an id$"),
    ("composite cell missing",
     lambda: double_data_composing(zero, missing),
     "^composition is not functorial: the morphism map holds an entry that is not an id$"),
    ("composite endpoints", double_composite_endpoints,
     "composite of pair 0 has wrong endpoints"),
    ("left unit", lambda: double_unit_law("left"),
     "left unit law fails at horizontal arrow 1"),
    ("right unit", lambda: double_unit_law("right"),
     "right unit law fails at horizontal arrow 1"),
    ("unit on a cell", double_unit_law_on_a_cell, "left unit law fails at cell 1"),
    ("associativity", double_not_associative,
     r"composition is not associative at triple \(1, 1, 2\)"),
]


@pytest.mark.parametrize("make, message", [c[1:] for c in DOUBLE_CASES],
                         ids=[c[0] for c in DOUBLE_CASES])
def test_from_generators_names_the_broken_law(make, message):
    with pytest.raises(ValueError, match=message):
        wg.from_generators(*make())


def klein():
    """The Klein four-group as a one-object category; cell c has bits c & 1, c >> 1."""
    return fc.FinCat(1, (0,) * 4, (0,) * 4, (0,),
                     {(g, f): g ^ f for g in range(4) for f in range(4)})


def test_composite_cells_must_keep_their_endpoints():
    # level zero is Z/2; the unit u carries Z/2 and the arrow a the Klein
    # group, whose cell (i, j) has source shadow i and target shadow j.
    # Composing (i, j) with (j, l) gives (i + j, l): objects and units are
    # fine, but the source shadow moves whenever j = 1
    x0 = z2()
    x1, _, _ = fc.disjoint_union([z2(), klein()])
    d1 = fc.FunctorMap(x1, x0, [0, 0], [0, 1] + [c & 1 for c in range(4)])
    d0 = fc.FunctorMap(x1, x0, [0, 0], [0, 1] + [c >> 1 for c in range(4)])
    s0 = fc.FunctorMap(x0, x1, [0], [0, 1])

    def cm(m, n):
        # cells 0 and 1 are the unit's, cell 2 + c is the arrow's (c & 1, c >> 1)
        if m < 2:
            return n
        if n < 2:
            return m
        i, j, l = (m - 2) & 1, (m - 2) >> 1, (n - 2) >> 1
        return 2 + (i ^ j) + 2 * l

    with pytest.raises(ValueError, match="composite of cell pair 13 has wrong endpoints"):
        wg.from_generators(x0, x1, d0, d1, s0, lambda f, g: max(f, g), cm)


def test_associativity_failing_only_on_cells_names_the_cell_triple():
    # over one point, the unit u has no cells and the arrow a the Klein
    # group; on a-cells x . y = x + N y with N the nilpotent shift of the
    # high bit to the low one, which is not idempotent
    x0 = fc.discrete(1)
    x1, _, _ = fc.disjoint_union([fc.discrete(1), klein()])

    def cm(m, n):
        if m == 0 or n == 0:
            return m + n
        return 1 + ((m - 1) ^ ((n - 1) >> 1))

    with pytest.raises(ValueError, match=r"composition is not associative at triple \(1, 1, 3\)"):
        wg.from_generators(x0, x1, const(x1, x0), const(x1, x0), const(x0, x1),
                           lambda f, g: max(f, g), cm)


# -- fair presentations -------------------------------------------------------


def fair_data(points=None, arrows=None, units=None, src=None, tgt=None, value=None,
              as_arrow=None, ca=(zero, zero), cu=(zero, zero)):
    """A one-point presentation with the named pieces replaced."""
    points = points or fc.discrete(1)
    arrows = arrows or fc.discrete(1)
    units = units or fc.discrete(1)
    return (points, arrows, units,
            src or const(arrows, points), tgt or const(arrows, points),
            value or const(units, points), as_arrow or const(units, arrows)) + ca + cu


def fair_unit_endpoint(end):
    # the one arrow runs from point 1 to point 0 (or back) and carries the unit at 1
    pts = fc.discrete(2)
    arr = fc.discrete(1)
    leg = {"start": (0, 1), "end": (1, 0)}[end]
    return fair_data(points=pts, src=const(arr, pts, leg[0]), tgt=const(arr, pts, leg[1]),
                     value=const(fc.discrete(1), pts, 1))


def fair_composition_moves(end):
    # arrows are endpoint-labelled identities over two points; units are empty
    pts = fc.discrete(2)
    none = fc.discrete(0)
    if end == "start":
        arr = fc.discrete(2)
        ends = ([0, 1], [0, 1])
        co = lambda f, g: 1 - f
    else:
        # a0: 0 -> 0, a1: 0 -> 1, a2: 1 -> 1; (a0, a1) composes to a0
        arr = fc.discrete(3)
        ends = ([0, 0, 1], [0, 1, 1])
        co = lambda f, g: f
    src, tgt = (fc.FunctorMap(arr, pts, e, e) for e in ends)
    return fair_data(points=pts, arrows=arr, units=none, src=src, tgt=tgt,
                     value=fc.FunctorMap(none, pts, [], []),
                     as_arrow=fc.FunctorMap(none, arr, [], []), ca=(co, co))


def fair_unit_composition_moves():
    # unit i sits at point i and on arrow i; composing two units swaps them
    pts = arr = units = fc.discrete(2)
    one = fc.identity_functor(pts)
    return fair_data(points=pts, arrows=arr, units=units, src=one, tgt=one, value=one,
                     as_arrow=one, ca=(first, first), cu=(lambda a, b: 1 - a, lambda m, n: 1 - m))


def fair_not_associative(which):
    # three endo-arrows at one point; m(a,a)=b, m(a,b)=u, m(b,a)=a breaks
    # associativity at (a,a,a)
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
             (1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 0}
    co = lambda f, g: table[(f, g)]
    if which == "arrow":
        return fair_data(arrows=fc.discrete(3), ca=(co, co))
    return fair_data(units=fc.discrete(3), cu=(co, co))


FAIR_CASES = [
    ("points malformed", lambda: fair_data(points=malformed()),
     "^the points are not a category: identity table out of range$"),
    ("arrows not associative",
     lambda: fair_data(arrows=three_cells(NOT_ASSOCIATIVE), ca=(zero, lookup(HORIZONTAL))),
     r"^the arrows are not a category: associativity fails on \(1, 1, 1\)$"),
    ("units missing a composite", lambda: fair_data(units=z2_missing()),
     "^the units are not a category: composite of 1 after 1 is missing$"),
    ("wrong endpoints", lambda: fair_data(src=const(fc.discrete(2), fc.discrete(1))),
     "source map has wrong endpoints"),
    ("unit wrong endpoints",
     lambda: fair_data(as_arrow=const(fc.discrete(1), fc.discrete(2))),
     "unit map has wrong endpoints"),
    ("not a functor",
     lambda: fair_data(points=fc.discrete(2),
                       src=fc.FunctorMap(fc.discrete(1), fc.discrete(2), [0], [1]),
                       tgt=const(fc.discrete(1), fc.discrete(2)),
                       value=const(fc.discrete(1), fc.discrete(2))),
     "source map is not a functor: morphism 0 is not sent"),
    ("target map entry not an id",
     lambda: fair_data(tgt=fc.FunctorMap(fc.discrete(1), fc.discrete(1), [None], [0])),
     "^target map is not a functor: the object map holds an entry that is not an id$"),
    ("target map out of range",
     lambda: fair_data(tgt=fc.FunctorMap(fc.discrete(1), fc.discrete(1), [5], [0])),
     "^target map is not a functor: object map out of range$"),
    ("unit start", lambda: fair_unit_endpoint("start"),
     "unit arrows do not start at their point"),
    ("unit end", lambda: fair_unit_endpoint("end"),
     "unit arrows do not end at their point"),
    ("composition functor",
     lambda: fair_data(arrows=z2(), ca=(zero, lambda m, n: 1)),
     "^composition is not functorial: identity of object 0 is not preserved"),
    ("unit composition functor",
     lambda: fair_data(units=z2(), cu=(zero, lambda m, n: 1)),
     "unit composition is not functorial: identity of object 0 is not preserved"),
    ("composite arrow missing", lambda: fair_data(ca=(missing, zero)),
     "^composition is not functorial: the object map holds an entry that is not an id$"),
    ("composite unit cell missing", lambda: fair_data(cu=(zero, missing)),
     "^unit composition is not functorial: the morphism map holds an entry that is not"
     " an id$"),
    ("composite start", lambda: fair_composition_moves("start"),
     "composition does not start where the first factor starts"),
    ("composite end", lambda: fair_composition_moves("end"),
     "composition does not end where the second factor ends"),
    ("unit composite point", fair_unit_composition_moves,
     "unit composition does not stay over its point"),
    ("associativity", lambda: fair_not_associative("arrow"),
     r"^composition is not associative at triple \(1, 1, 1\)"),
    ("unit associativity", lambda: fair_not_associative("unit"),
     r"unit composition is not associative at triple \(1, 1, 1\)"),
    ("unit embedding",
     lambda: fair_data(arrows=fc.discrete(2), as_arrow=const(fc.discrete(1), fc.discrete(2), 1)),
     r"unit embedding is not a semi-functor at pair \(0, 0\)"),
]


@pytest.mark.parametrize("make, message", [c[1:] for c in FAIR_CASES],
                         ids=[c[0] for c in FAIR_CASES])
def test_from_presentation_names_the_broken_law(make, message):
    with pytest.raises(ValueError, match=message):
        f2.from_presentation(*make())


# -- levels that are not categories -------------------------------------------


def unital_products():
    """Every table of products of cells 1 and 2 into {0, 1, 2}: 81 of them."""
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    return [dict(zip(pairs, values)) for values in itertools.product(range(3), repeat=4)]


def test_every_level_that_is_not_a_category_is_refused_with_its_law():
    # all 81 unital vertical tables on one object with three cells, crossed
    # with all 81 unital horizontal tables, through both builders
    tables = unital_products()
    laws = {i: fc.validate_category(three_cells(v)) for i, v in enumerate(tables)}
    assert sum(1 for bad in laws.values() if not bad) == 11
    refused = 0
    for i, vertical in enumerate(tables):
        for horizontal in tables:
            level, co = three_cells(vertical), lookup(horizontal)
            for build, data, prefix in (
                    (wg.from_generators, double_level(fc.discrete(1), level, co),
                     "level one is not a category: "),
                    (f2.from_presentation, fair_data(arrows=level, ca=(zero, co)),
                     "the arrows are not a category: ")):
                try:
                    build(*data)
                    message = None
                except ValueError as err:
                    message = str(err)
                if laws[i]:
                    assert message == prefix + laws[i][0]
                    assert laws[i][0].startswith("associativity fails on ")
                    refused += 1
                else:
                    assert message is None or "not a category" not in message
    assert refused == 2 * 70 * 81
