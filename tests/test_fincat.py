"""Kernel checks: categories, functors, discretization, factorizations."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wgfair import fincat as fc


def free_arrow():
    # objects 0, 1; morphisms id0, id1, and 2: 0 -> 1
    return fc.FinCat(2, (0, 1, 0), (0, 1, 1), (0, 1),
                     {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})


def cyclic_group(n):
    # single object, morphism k is the group element k
    comp = {(g, f): (g + f) % n for g in range(n) for f in range(n)}
    return fc.FinCat(1, (0,) * n, (0,) * n, (0,), comp)


def chaotic_functor(na, nb, obj_map):
    """The unique functor between chaotic categories over a given object map."""
    a, b = fc.chaotic(na), fc.chaotic(nb)
    mor_map = [obj_map[m // na] * nb + obj_map[m % na] for m in range(na * na)]
    return fc.FunctorMap(a, b, obj_map, mor_map)


def constant_functor(cat, target, obj):
    return fc.FunctorMap(cat, target, (obj,) * cat.n_obj,
                         (target.identity[obj],) * cat.n_mor)


def is_nat_iso(nat):
    """Natural with invertible components; malformed functors raise ValueError."""
    return not fc.validate_nat(nat) and all(nat.source.target.is_iso(c) for c in nat.components)


def transitive_reflexive_closure(n, pairs):
    rel = set(pairs) | {(x, x) for x in range(n)}
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return rel


def test_validate_discrete_and_free_arrow():
    assert fc.validate_category(fc.discrete(3)) == []
    assert fc.validate_category(free_arrow()) == []
    assert fc.validate_category(fc.chaotic(3)) == []
    assert fc.validate_category(cyclic_group(3)) == []


def test_validate_names_broken_associativity_triple():
    cat = cyclic_group(3)
    cat.comp[(1, 1)] = 1
    report = fc.validate_category(cat)
    assert "associativity fails on (1, 1, 2)" in report


def test_validate_reports_identity_and_closure_breaks():
    cat = free_arrow()
    del cat.comp[(1, 2)]
    report = fc.validate_category(cat)
    assert any("missing" in p for p in report)
    cat2 = free_arrow()
    cat2.comp[(0, 1)] = 0
    assert any("non-composable" in p for p in fc.validate_category(cat2))


def test_validate_raises_on_dangling_ids():
    with pytest.raises(ValueError):
        fc.validate_category(fc.FinCat(1, (0,), (0,), (0,), {(0, 9): 0}))
    with pytest.raises(ValueError):
        fc.validate_category(fc.FinCat(1, (0, 3), (0, 0), (0,), {}))


def test_iso_classes_examples():
    assert fc.iso_classes(fc.discrete(2))[0] == [[0], [1]]
    assert fc.iso_classes(fc.chaotic(2))[0] == [[0, 1]]
    union, _, _ = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    classes, class_of = fc.iso_classes(union)
    assert classes == [[0, 1], [2]]
    assert class_of == (0, 0, 1)


def test_homotopically_discrete_examples():
    assert fc.is_homotopically_discrete(fc.chaotic(2)) == (True, None)
    flag, witness = fc.is_homotopically_discrete(cyclic_group(2))
    assert not flag and witness == 1  # the non-identity loop
    flag, witness = fc.is_homotopically_discrete(free_arrow())
    assert not flag and witness == 2  # the non-invertible arrow


def test_discretize_chaotic_picks_least_object():
    res = fc.discretize(fc.chaotic(2))
    assert res.discrete.n_obj == 1
    assert res.section.obj_map == (0,)
    assert fc.is_equivalence(res.quotient)


def test_discretize_discrete_is_identity():
    res = fc.discretize(fc.discrete(3))
    assert res.quotient == fc.identity_functor(fc.discrete(3))
    assert res.section == fc.identity_functor(fc.discrete(3))


def test_discretize_union_and_rejection():
    union, _, _ = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    res = fc.discretize(union)
    assert res.discrete.n_obj == 2
    assert fc.compose_functors(res.quotient, res.section) == fc.identity_functor(res.discrete)
    with pytest.raises(ValueError):
        fc.discretize(cyclic_group(2))


def test_discretize_names_a_section_law_failing_only_on_morphisms():
    # the identity of each object is the other object's loop: one morphism
    # per pair, all invertible, but the section's identity leaves its class
    crossed = fc.FinCat(2, [0, 1], [0, 1], [1, 0], {(0, 0): 1, (1, 1): 0})
    assert fc.is_homotopically_discrete(crossed) == (True, None)
    with pytest.raises(ValueError, match="^section law fails at class 0$"):
        fc.discretize(crossed)


def test_pullback_over_terminal_is_product():
    a, b, t = free_arrow(), fc.chaotic(2), fc.discrete(1)
    fa, fb = constant_functor(a, t, 0), constant_functor(b, t, 0)
    chain = fc.chain_fiber_product([a, b], [fa], [fb])
    assert chain.cat.n_obj == a.n_obj * b.n_obj
    assert chain.cat.n_mor == a.n_mor * b.n_mor
    assert fc.validate_category(chain.cat) == []
    for proj in chain.projections:
        assert fc.validate_functor(proj) == []


def test_pullback_along_identity_is_source():
    a, b = fc.discrete(2), fc.chaotic(2)
    f = fc.FunctorMap(a, b, (0, 1), (b.identity[0], b.identity[1]))
    chain = fc.chain_fiber_product([a, b], [f], [fc.identity_functor(b)])
    assert chain.obj_label == tuple((x, f.obj_map[x]) for x in range(a.n_obj))
    assert chain.cat.n_mor == a.n_mor


def test_pullback_over_discrete_splits_fiberwise():
    # blocks: fiber 0 gets chaotic(2) and discrete(2); fiber 1 gets discrete(1) and chaotic(2)
    d = fc.discrete(2)
    a, a_obj_off, _ = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    b, b_obj_off, _ = fc.disjoint_union([fc.discrete(2), fc.chaotic(2)])
    fa = fc.FunctorMap(a, d, (0, 0, 1), (0, 0, 0, 0, 1))
    fb = fc.FunctorMap(b, d, (0, 0, 1, 1), (0, 0, 1, 1, 1, 1))
    assert fc.validate_functor(fa) == [] and fc.validate_functor(fb) == []
    chain = fc.chain_fiber_product([a, b], [fa], [fb])
    # oracle: the product formula per fiber
    assert chain.cat.n_obj == 2 * 2 + 1 * 2
    assert chain.cat.n_mor == 4 * 2 + 1 * 4
    assert fc.validate_category(chain.cat) == []
    # iso classes multiply fiberwise as well
    assert len(fc.iso_classes(chain.cat)[0]) == 1 * 2 + 1 * 1


def test_mediating_functor_recovers_cone():
    a, b, t = free_arrow(), fc.chaotic(2), fc.discrete(1)
    fa, fb = constant_functor(a, t, 0), constant_functor(b, t, 0)
    chain = fc.chain_fiber_product([a, b], [fa], [fb])
    u = fc.mediating_functor(chain, chain.projections)
    assert u == fc.identity_functor(chain.cat)

    point = fc.discrete(1)
    qa = fc.FunctorMap(point, a, (0,), (a.identity[0],))
    qb = fc.FunctorMap(point, b, (1,), (b.identity[1],))
    u = fc.mediating_functor(chain, [qa, qb])
    assert fc.compose_functors(chain.projections[0], u) == qa
    assert fc.compose_functors(chain.projections[1], u) == qb


def test_mediating_functor_rejects_non_cone():
    b = fc.chaotic(2)
    f = fc.FunctorMap(fc.discrete(2), b, (0, 1), (b.identity[0], b.identity[1]))
    chain = fc.chain_fiber_product([f.source, f.source], [f], [f])
    point = fc.discrete(1)
    qa = fc.FunctorMap(point, chain.projections[0].target, (0,), (0,))
    qb = fc.FunctorMap(point, chain.projections[1].target, (1,), (1,))
    with pytest.raises(ValueError):
        fc.mediating_functor(chain, [qa, qb])


def test_mediating_functor_rejects_an_empty_cone():
    a = free_arrow()
    ida = fc.identity_functor(a)
    chain = fc.chain_fiber_product([a, a], [ida], [ida])
    with pytest.raises(ValueError, match="one cone leg per factor"):
        fc.mediating_functor(chain, [])


def test_equivalence_flags_rejects_malformed_maps():
    with pytest.raises(ValueError, match="out of range"):
        fc.equivalence_flags(fc.FunctorMap(fc.discrete(2), fc.discrete(1), [0, 5], [0, 5]))
    with pytest.raises(ValueError, match="lengths disagree"):
        fc.equivalence_flags(fc.FunctorMap(fc.discrete(2), fc.discrete(1), [0], [0, 0]))


def test_equivalence_flags_examples():
    flags = fc.equivalence_flags(fc.identity_functor(fc.chaotic(3)))
    assert all(flags.values())

    collapse = chaotic_functor(2, 1, (0, 0))
    flags = fc.equivalence_flags(collapse)
    assert flags["is_equivalence"] and not flags["injective_on_objects"]

    empty = fc.FinCat(0, (), (), (), {})
    flags = fc.equivalence_flags(fc.FunctorMap(empty, fc.discrete(1), (), ()))
    assert flags["fully_faithful"] and not flags["essentially_surjective"]


def test_retraction_identity_and_point_inclusion():
    r = fc.retraction_pseudo_inverse(fc.identity_functor(fc.chaotic(2)))
    assert r.backward == fc.identity_functor(fc.chaotic(2))
    assert all(c == fc.chaotic(2).identity[x] for x, c in enumerate(r.counit.components))

    b = fc.chaotic(2)
    incl = fc.FunctorMap(fc.discrete(1), b, (0,), (b.identity[0],))
    r = fc.retraction_pseudo_inverse(incl)
    assert r.backward.obj_map == (0, 0)
    assert r.counit.components == (b.identity[0], 1)  # the unique iso 0 -> 1
    assert fc.validate_nat(r.counit) == []
    assert fc.compose_functors(r.backward, incl) == fc.identity_functor(fc.discrete(1))


def test_retraction_rejects_bad_input():
    with pytest.raises(ValueError):
        fc.retraction_pseudo_inverse(chaotic_functor(2, 1, (0, 0)))


@given(st.integers(1, 4), st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_thin_preorder_categories_are_valid(n, pairs):
    pairs = {(x, y) for (x, y) in pairs if x < n and y < n}
    cat = fc.thin_from_preorder(n, transitive_reflexive_closure(n, pairs))
    assert fc.validate_category(cat) == []


@pytest.mark.parametrize("n, pairs, message", [
    (1, [(0, 0), (0, 3), (3, 3)], r"pair \(0, 3\) is outside 0\.\.0"),
    (2, [(0, 0), (1, 1), (-1, 0)], r"pair \(-1, 0\) is outside 0\.\.1"),
    (2, [(0, 0), (0, 1)], "preorder is not reflexive at 1"),
    (3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)],
     r"preorder is not transitive: \(0, 2\) is missing"),
    (3, [(0, 0), (1, 1), (2, 2), (2, 0), (1, 2)],
     r"preorder is not transitive: \(1, 0\) is missing"),
])
def test_thin_from_preorder_names_the_bad_pair(n, pairs, message):
    with pytest.raises(ValueError, match=message):
        fc.thin_from_preorder(n, pairs)


@pytest.mark.parametrize("build", [lambda n: fc.thin_from_preorder(n, []), fc.discrete,
                                   fc.chaotic], ids=["thin", "discrete", "chaotic"])
def test_a_negative_size_is_refused(build):
    # -1 objects used to give FinCat(-1 obj, 0 mor)
    with pytest.raises(ValueError, match="^n must be at least 0, not -1$"):
        build(-1)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_disjoint_chaotic_blocks_are_hd(sizes):
    cat, _, _ = fc.disjoint_union([fc.chaotic(s) for s in sizes])
    assert fc.is_homotopically_discrete(cat) == (True, None)
    res = fc.discretize(cat)
    assert res.discrete.n_obj == len(sizes)
    assert fc.compose_functors(res.quotient, res.section) == fc.identity_functor(res.discrete)
    assert fc.is_equivalence(res.quotient)


@settings(max_examples=50)
@given(st.integers(1, 2),
       st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1)), min_size=1, max_size=3))
def test_iso_classes_preserve_pullbacks_over_discrete(d_size, a_blocks, b_blocks):
    d = fc.discrete(d_size)
    a_blocks = [(s, f % d_size) for (s, f) in a_blocks]
    b_blocks = [(s, f % d_size) for (s, f) in b_blocks]
    a, a_off, _ = fc.disjoint_union([fc.chaotic(s) for s, _ in a_blocks])
    b, b_off, _ = fc.disjoint_union([fc.chaotic(s) for s, _ in b_blocks])

    def to_base(cat, offs, blocks):
        obj = [0] * cat.n_obj
        for (start, (size, fib)) in zip(offs, blocks):
            for x in range(start, start + size):
                obj[x] = fib
        return fc.FunctorMap(cat, d, obj, [obj[cat.src[m]] for m in range(cat.n_mor)])

    chain = fc.chain_fiber_product([a, b], [to_base(a, a_off, a_blocks)],
                                   [to_base(b, b_off, b_blocks)])
    assert fc.validate_category(chain.cat) == []
    want = sum(1 for (_, fa) in a_blocks for (_, fb) in b_blocks if fa == fb)
    assert len(fc.iso_classes(chain.cat)[0]) == want


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_retraction_laws_on_block_inclusions(sizes, data):
    b, offs, _ = fc.disjoint_union([fc.chaotic(s) for s in sizes])
    picks = sorted({off + data.draw(st.integers(0, s - 1))
                    for off, s in zip(offs, sizes)})
    a, incl = fc.full_subcategory(b, picks)
    r = fc.retraction_pseudo_inverse(incl)
    assert fc.compose_functors(r.backward, incl) == fc.identity_functor(a)
    assert fc.validate_nat(r.counit) == []
    assert is_nat_iso(r.counit)
    for x in range(a.n_obj):
        assert r.counit.components[incl.obj_map[x]] == b.identity[incl.obj_map[x]]


def test_full_subcategory_names_an_object_the_category_lacks():
    with pytest.raises(ValueError, match="object 5 is not among the 2 objects"):
        fc.full_subcategory(free_arrow(), [5])
    with pytest.raises(ValueError, match="object -1 is not among the 2 objects"):
        fc.full_subcategory(free_arrow(), [0, -1])


def test_chain_fiber_product_matches_brute_force():
    x0 = fc.discrete(2)
    x1, _, _ = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    left = fc.FunctorMap(x1, x0, (0, 0, 1), (0, 0, 0, 0, 1))
    right = fc.FunctorMap(x1, x0, (1, 1, 0), (1, 1, 1, 1, 0))
    chain = fc.chain_fiber_product([x1, x1, x1], [right, right], [left, left])
    want_obj = [t for t in itertools.product(range(3), repeat=3)
                if right.obj_map[t[0]] == left.obj_map[t[1]]
                and right.obj_map[t[1]] == left.obj_map[t[2]]]
    assert list(chain.obj_label) == want_obj
    want_mor = [t for t in itertools.product(range(5), repeat=3)
                if right.mor_map[t[0]] == left.mor_map[t[1]]
                and right.mor_map[t[1]] == left.mor_map[t[2]]]
    assert list(chain.mor_label) == want_mor
    assert fc.validate_category(chain.cat) == []


def test_nat_transf_validation():
    b = fc.chaotic(2)
    ident = fc.identity_functor(b)
    ok = fc.NatTransf(ident, ident, (b.identity[0], b.identity[1]))
    assert fc.validate_nat(ok) == [] and is_nat_iso(ok)
    bad = fc.NatTransf(ident, ident, (1, 2))  # wrong endpoints
    assert fc.validate_nat(bad) != []
    with pytest.raises(ValueError):
        fc.validate_nat(fc.NatTransf(ident, ident, (0,)))


def test_nat_validation_rejects_malformed_functors():
    b = fc.chaotic(2)
    ident = fc.identity_functor(b)
    units = (b.identity[0], b.identity[1])
    short = fc.FunctorMap(b, b, (0, 1), (0, 1, 2))
    for nat in (fc.NatTransf(ident, short, units), fc.NatTransf(short, ident, units)):
        with pytest.raises(ValueError, match="lengths disagree"):
            fc.validate_nat(nat)
        with pytest.raises(ValueError, match="lengths disagree"):
            is_nat_iso(nat)
    wild = fc.FunctorMap(b, b, (0, 5), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="object map out of range"):
        fc.validate_nat(fc.NatTransf(ident, wild, units))


def test_generators_are_chosen_greedily_in_id_order():
    # chaotic(3): morphism 3x + y goes x -> y; 5 = 1.3 and 7 = 1.6 come later
    assert fc.generators(fc.chaotic(3)) == [1, 2, 3, 6]
    assert fc.generators(cyclic_group(2)) == [1]
    assert fc.generators(cyclic_group(6)) == [1]
    assert fc.generators(fc.discrete(3)) == []
    assert fc.generators(free_arrow()) == [2]


def test_functor_validation_reports_and_raises():
    z2 = cyclic_group(2)
    bad = fc.FunctorMap(fc.discrete(1), z2, (0,), (1,))
    assert any("identity" in p for p in fc.validate_functor(bad))
    with pytest.raises(ValueError):
        fc.validate_functor(fc.FunctorMap(fc.discrete(1), z2, (0,), (1, 1)))


def test_inverse_and_compose_basics():
    b = fc.chaotic(2)
    assert b.inverse(1) == 2 and b.is_iso(1)
    arrow = free_arrow()
    assert arrow.inverse(2) is None
    assert arrow.compose(1, 2) == 2
    with pytest.raises(ValueError):
        arrow.compose(2, 1)


@pytest.mark.parametrize("m", [7, 3, -1])
def test_inverse_and_is_iso_reject_a_morphism_outside_the_category(m):
    # a negative id used to wrap around to the last morphism
    arrow = free_arrow()
    message = r"^morphism %d is not one of the 3 morphisms$" % m
    for ask in (arrow.inverse, arrow.is_iso):
        with pytest.raises(ValueError, match=message):
            ask(m)


def test_chain_fiber_product_rejects_a_short_constraint_map():
    a, t = free_arrow(), fc.discrete(1)
    full = constant_functor(a, t, 0)
    short = fc.FunctorMap(a, t, (0,), (0, 0, 0))
    for side, right, left in (("right", short, full), ("left", full, short)):
        with pytest.raises(ValueError, match=r"^functor map lengths disagree with its factor:"
                                             r" the %s constraint map 0's object map has length"
                                             r" 1 but its factor has 2 objects$" % side):
            fc.chain_fiber_product([a, a], [right], [left])


def test_mediating_functor_rejects_a_short_cone_leg():
    a, t = free_arrow(), fc.discrete(1)
    ta = constant_functor(a, t, 0)
    chain = fc.chain_fiber_product([a, a], [ta], [ta])
    ida = fc.identity_functor(a)
    with pytest.raises(ValueError, match=r"^functor map lengths disagree with the cone's"
                                         r" source: cone leg 1's morphism map has length 2"
                                         r" but the cone's source has 3 morphisms$"):
        fc.mediating_functor(chain, [ida, fc.FunctorMap(a, a, (0, 1), (0, 1))])
