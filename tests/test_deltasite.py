"""Colored-ordinal site: maps, factorizations, interpolation, pushouts, lifts."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wgfair import deltasite as ds


o = ds.parse_ordinal
WINDOW = ds.TruncationWindow()


def window_ordinals():
    return ds.window_objects(WINDOW)


ordinals = st.sampled_from(window_ordinals())


def test_parse_and_text_roundtrip():
    assert o("o-o=o").dots == 3 and o("o-o=o").colored == frozenset({1})
    for obj in window_ordinals():
        assert o(obj.text()) == obj
    with pytest.raises(ValueError):
        o("o-")
    with pytest.raises(ValueError):
        o("x")


def test_simplex_map_basics():
    f = ds.SimplexMap(2, 2, (0, 0, 2))
    assert not ds.is_mono_simplex(f) and not ds.is_epi_simplex(f)
    with pytest.raises(ValueError):
        ds.SimplexMap(1, 1, (1, 0))
    with pytest.raises(ValueError):
        ds.SimplexMap(1, 1, (0, 2))


def test_epi_mono_factor_examples():
    ident = ds.identity_simplex(2)
    assert ds.epi_mono_factor_delta(ident) == (ident, ident)
    drop = ds.SimplexMap(1, 0, (0, 0))
    assert ds.epi_mono_factor_delta(drop) == (drop, ds.identity_simplex(0))
    eta, eps = ds.epi_mono_factor_delta(ds.SimplexMap(2, 2, (0, 0, 2)))
    assert eta == ds.SimplexMap(2, 1, (0, 0, 1))
    assert eps == ds.SimplexMap(1, 2, (0, 2))
    assert ds.compose_simplex(eps, eta) == ds.SimplexMap(2, 2, (0, 0, 2))


def test_endpoint_inclusions_into_linked_pair():
    maps = ds.enumerate_hom(o("o"), o("o=o"))
    assert [m.dotmap for m in maps] == [(0,), (1,)]


def test_color_rule_rejects_broken_link():
    problems = ds.validate_fat_map(o("o=o"), o("o-o-o"), (0, 2))
    assert problems == ["colored edge 0 maps over a plain edge"]
    with pytest.raises(ValueError):
        ds.FatMap(o("o=o"), o("o-o-o"), (0, 2))


def test_plain_edges_may_cross_colored_ones():
    # a link can be set without being broken: plain source edges carry no constraint
    assert ds.validate_fat_map(o("o-o"), o("o=o"), (0, 1)) == []


def test_compose_fat_example():
    f = ds.FatMap(o("o"), o("o=o"), (1,))
    g = ds.FatMap(o("o=o"), o("o=o-o"), (0, 1))
    gf = ds.compose_fat(g, f)
    assert gf == ds.FatMap(o("o"), o("o=o-o"), (1,))


def test_collapse_examples():
    assert ds.collapse(o("o=o=o")) == 0
    assert ds.all_colored(2) == o("o=o=o")
    assert ds.collapse(o("o=o-o=o")) == 1
    f = ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    assert ds.collapse(f) == ds.SimplexMap(1, 0, (0, 0))


def test_hom_counts_pinned():
    assert len(ds.enumerate_hom(o("o"), o("o=o"))) == 2
    assert len(ds.enumerate_hom(o("o-o"), o("o-o-o"))) == 3
    assert len(ds.enumerate_hom(o("o=o"), o("o-o-o"))) == 0
    assert len(ds.enumerate_hom(o("o=o"), o("o-o"))) == 0


@given(ordinals, ordinals)
def test_hom_matches_edgewise_fiber_count(src, tgt):
    """Double enumeration: maps out of a row of dots are glued edge maps."""
    maps = ds.enumerate_hom(src, tgt)
    if src.dots == 1:
        assert len(maps) == tgt.dots
        return
    pieces = ds.edge_pieces(src)
    count = 0
    per_edge = [ds.enumerate_hom(p, tgt) for p in pieces]
    for combo in itertools.product(*per_edge):
        if all(combo[i].dotmap[1] == combo[i + 1].dotmap[0]
               for i in range(len(combo) - 1)):
            count += 1
    assert len(maps) == count


@given(ordinals, ordinals, ordinals, st.data())
def test_collapse_is_functorial_and_composition_closes(a, b, c, data):
    fs = ds.enumerate_hom(a, b)
    gs = ds.enumerate_hom(b, c)
    if not fs or not gs:
        return
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    gf = ds.compose_fat(g, f)  # constructor re-validates the color rule
    assert ds.collapse(gf) == ds.compose_simplex(ds.collapse(g), ds.collapse(f))


@given(ordinals, ordinals, ordinals, ordinals, st.data())
def test_fat_composition_is_associative(a, b, c, d, data):
    fs, gs, hs = (ds.enumerate_hom(a, b), ds.enumerate_hom(b, c),
                  ds.enumerate_hom(c, d))
    if not fs or not gs or not hs:
        return
    f, g, h = (data.draw(st.sampled_from(m)) for m in (fs, gs, hs))
    assert ds.compose_fat(ds.compose_fat(h, g), f) == ds.compose_fat(h, ds.compose_fat(g, f))


def test_class_top_section_examples():
    assert ds.class_top_section(o("o-o-o")) == ds.fat_identity(o("o-o-o"))
    assert ds.class_top_section(o("o=o")).dotmap == (1,)
    assert ds.class_top_section(o("o=o-o")).dotmap == (1, 2)
    with pytest.raises(ValueError):
        ds.class_top_section(o("o=o"), rank=1)


@given(ordinals)
def test_class_top_section_is_a_section(obj):
    nu = ds.class_top_section(obj)
    r = ds.collapse(obj)
    assert nu.src == ds.plain(r)
    assert ds.collapse(nu) == ds.identity_simplex(r)


def test_epi_mono_lift_identity():
    f = ds.fat_identity(o("o=o-o"))
    eta, eps = ds.epi_mono_lift_fat(f)
    assert eta == f and eps == ds.fat_identity(o("o=o-o"))


def test_epi_mono_lift_collapsing_map():
    f = ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    eta, eps = ds.epi_mono_lift_fat(f)
    assert eps == ds.fat_identity(o("o=o"))
    assert eta == f


def test_epi_mono_lift_keeps_whole_runs():
    # both target runs are hit, so the middle object is the whole target
    f = ds.FatMap(o("o-o"), o("o=o-o"), (0, 2))
    eta, eps = ds.epi_mono_lift_fat(f)
    assert eps == ds.fat_identity(o("o=o-o"))
    assert eta == f
    # a map into a proper subset of runs keeps just those runs, fully
    g = ds.FatMap(o("o"), o("o=o-o"), (1,))
    eta, eps = ds.epi_mono_lift_fat(g)
    assert eps.src == o("o=o") and eps.dotmap == (0, 1)
    assert eta == ds.FatMap(o("o"), o("o=o"), (1,))


@given(ordinals, ordinals, st.data())
def test_epi_mono_lift_properties(a, b, data):
    fs = ds.enumerate_hom(a, b)
    if not fs:
        return
    f = data.draw(st.sampled_from(fs))
    eta, eps = ds.epi_mono_lift_fat(f)
    assert ds.compose_fat(eps, eta) == f
    peta, peps = ds.epi_mono_factor_delta(ds.collapse(f))
    assert ds.collapse(eta) == peta and ds.collapse(eps) == peps


def test_mono_lift_square_with_canonical_sections():
    """Run-full mono lifts commute with the top-of-run sections."""
    for target in window_ordinals():
        n = ds.collapse(target)
        for r in range(n + 1):
            for values in itertools.combinations(range(n + 1), r + 1):
                eps = ds.SimplexMap(r, n, values)
                lifted = ds.mono_lift(eps, target)
                lhs = ds.compose_fat(lifted, ds.class_top_section(lifted.src))
                eps_fat = ds.FatMap(ds.plain(r), ds.plain(n), values)
                rhs = ds.compose_fat(ds.class_top_section(target), eps_fat)
                assert lhs == rhs


def test_bottom_dot_lift_breaks_the_section_square():
    # the square above needs top-preserving lifts; a bottom-dot lift of the
    # identity fails it, which is why run-full lifts are the pinned choice
    bottom = ds.FatMap(o("o"), o("o=o"), (0,))
    lhs = ds.compose_fat(bottom, ds.class_top_section(o("o")))
    rhs = ds.compose_fat(ds.class_top_section(o("o=o")), ds.fat_identity(o("o")))
    assert lhs != rhs


def test_interpolants_identity_is_degenerate():
    f = ds.fat_identity(o("o-o"))
    eta, eps = ds.epi_mono_lift_fat(f)
    res = ds.interpolants(eta, eps, eta, eps)
    assert res.first_failure is None
    assert res.mid_src == o("o-o") and res.mid_tgt == o("o-o")
    assert res.insert_src == ds.fat_identity(o("o-o"))
    assert res.bridge == ds.fat_identity(o("o-o"))


def test_interpolants_on_collapsing_map():
    f = ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    eta, eps = ds.epi_mono_lift_fat(f)
    res = ds.interpolants(eta, eps, eta, eps)
    assert res.first_failure is None and all(res.checks.values())
    assert res.mid_src == o("o=o") and res.mid_tgt == o("o=o")
    assert ds.compose_fat(res.to_second_tgt, res.bridge) == ds.compose_fat(eps, res.to_second_mid)


def test_interpolants_two_collision_surjection():
    f = ds.FatMap(o("o-o-o"), o("o=o=o"), (0, 1, 2))
    eta, eps = ds.epi_mono_lift_fat(f)
    res = ds.interpolants(eta, eps, eta, eps)
    assert res.mid_src == o("o=o=o")
    assert all(res.checks[d] for d in ("D1", "D2", "D3", "D4"))
    assert res.first_failure is None


def test_interpolants_between_distinct_parallel_factorizations():
    # two factorizations of the same collapse through different middles
    eta1 = ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    eps1 = ds.FatMap(o("o=o"), o("o=o-o"), (0, 1))
    eta2 = ds.FatMap(o("o-o"), o("o=o=o"), (0, 2))
    eps2 = ds.FatMap(o("o=o=o"), o("o=o=o-o"), (0, 1, 2))
    assert ds.collapse(eta1) == ds.collapse(eta2)
    assert ds.collapse(eps1) == ds.collapse(eps2)
    res = ds.interpolants(eta1, eps1, eta2, eps2)
    assert res.first_failure is None, res.checks
    assert res.mid_src == o("o=o") and res.mid_tgt == o("o=o-o")
    assert res.to_second_tgt == ds.FatMap(o("o=o-o"), o("o=o=o-o"), (1, 2, 3))


def test_interpolants_reports_failing_square_for_bottom_lift():
    # second factorization routed through a bottom-dot inclusion: its
    # section square fails, and D6 is the first diagram to see it
    eta1 = ds.FatMap(o("o"), o("o=o"), (1,))
    eps1 = ds.fat_identity(o("o=o"))
    eta2 = ds.fat_identity(o("o"))
    eps2 = ds.FatMap(o("o"), o("o=o"), (0,))
    res = ds.interpolants(eta1, eps1, eta2, eps2)
    assert res.first_failure == "D6"
    assert res.checks["D7"]


def test_interpolants_rejects_mismatched_collapses():
    f = ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    eta, eps = ds.epi_mono_lift_fat(f)
    g = ds.fat_identity(o("o-o"))
    eta2, eps2 = ds.epi_mono_lift_fat(g)
    with pytest.raises(ValueError):
        ds.interpolants(eta, eps, eta2, eps2)


def test_pushout_endpoint_gluing_examples():
    glue = ds.pushout_fat(ds.FatMap(o("o"), o("o=o"), (1,)),
                          ds.FatMap(o("o"), o("o=o"), (0,)))
    assert glue.obj == o("o=o=o") and glue.universal

    glue = ds.pushout_fat(ds.FatMap(o("o"), o("o-o"), (1,)),
                          ds.FatMap(o("o"), o("o=o"), (0,)))
    assert glue.obj == o("o-o=o") and glue.universal
    assert glue.left_inj.dotmap == (0, 1) and glue.right_inj.dotmap == (1, 2)


def test_pushout_run_insertion_identity_leg():
    ins = ds.class_top_section(o("o=o"))
    res = ds.pushout_fat(ins, ds.fat_identity(o("o")))
    assert res.obj == o("o=o")
    assert res.universal


def test_pushout_run_insertion_can_lack_universality():
    # inserting a link and mapping the dot up one step: the construction
    # below is the interpolation object, but no genuine pushout exists, and
    # the verifier exhibits a cocone with no mediating map
    ins = ds.class_top_section(o("o=o"))
    eps = ds.FatMap(o("o"), o("o-o"), (1,))
    res = ds.pushout_fat(ins, eps)
    assert res.obj == o("o-o=o")
    assert res.left_inj.dotmap == (1, 2)
    assert res.right_inj == ds.class_top_section(o("o-o=o"))
    assert res.universal is False
    assert res.witness is not None


def test_pushout_rejects_unsupported_spans():
    with pytest.raises(ValueError):
        ds.pushout_fat(ds.FatMap(o("o"), o("o-o"), (0,)),
                       ds.FatMap(o("o"), o("o-o"), (0,)))


def test_window_reassembly_from_edge_pieces():
    for obj in window_ordinals():
        steps = ds.reassemble(obj)
        assert all(s.universal for s in steps)
        if obj.dots >= 3:
            assert steps[-1].obj == obj


def test_window_objects_count_and_validation():
    assert len(window_ordinals()) == 15
    with pytest.raises(ValueError):
        ds.TruncationWindow(max_dots=1)
    with pytest.raises(ValueError):
        ds.TruncationWindow(max_level=2)


def test_lift_chain_identities_and_monos():
    ident = ds.identity_simplex(2)
    lifts = ds.lift_chain([ident, ident])
    assert all(l == ds.fat_identity(o("o-o-o")) for l in lifts)

    down = ds.SimplexMap(1, 2, (0, 2))
    up = ds.SimplexMap(0, 1, (1,))
    lifted_down, lifted_up = ds.lift_chain([down, up])
    assert lifted_down == ds.FatMap(o("o-o"), o("o-o-o"), (0, 2))
    assert lifted_up == ds.FatMap(o("o"), o("o-o"), (1,))


def test_lift_pair_epi_then_mono():
    drop = ds.SimplexMap(1, 0, (0, 0))
    pick = ds.SimplexMap(0, 1, (1,))
    lifted_drop, lifted_pick = ds.lift_chain([drop, pick])
    assert lifted_pick == ds.FatMap(o("o"), o("o-o"), (1,))
    assert lifted_drop == ds.FatMap(o("o-o"), o("o=o"), (0, 1))
    assert ds.collapse(lifted_drop) == drop and ds.collapse(lifted_pick) == pick
    composite = ds.compose_fat(lifted_drop, lifted_pick)
    assert ds.collapse(composite) == ds.compose_simplex(drop, pick)


def test_lift_triple_accumulates_and_respects_window():
    a1 = ds.identity_simplex(3)
    a2 = ds.SimplexMap(3, 3, (0, 0, 0, 0))
    lifts = ds.lift_chain([a1, a2])
    assert lifts[1].tgt.dots == 7  # fibers pile up past the window
    assert ds.collapse(lifts[0]) == a1 and ds.collapse(lifts[1]) == a2
    with pytest.raises(ValueError):
        ds.lift_chain([a1, a2], window=WINDOW)


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_lift_chain_collapse_roundtrip(n0, n1, n2, data):
    def any_map(src_rank, tgt_rank):
        vals = sorted(data.draw(st.lists(st.integers(0, tgt_rank),
                                         min_size=src_rank + 1, max_size=src_rank + 1)))
        return ds.SimplexMap(src_rank, tgt_rank, vals)

    f = any_map(n1, n0)
    g = any_map(n2, n1)
    lf, lg = ds.lift_chain([f, g])
    assert ds.collapse(lf) == f and ds.collapse(lg) == g
    assert lf.src == lg.tgt
    assert ds.collapse(ds.compose_fat(lf, lg)) == ds.compose_simplex(f, g)


def test_canonical_lift_of_epi():
    f = ds.SimplexMap(2, 1, (0, 0, 1))
    (lift,) = ds.lift_chain([f])
    assert lift == ds.FatMap(o("o-o-o"), o("o=o-o"), (0, 1, 2))
    assert ds.collapse(lift) == f
