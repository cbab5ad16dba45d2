"""Colored-ordinal site: ordinal maps, colored maps, collapse and the window."""

import itertools

import pytest
from hypothesis import given, strategies as st

from wgfair import deltasite as ds


o = ds.parse_ordinal
ordinals = st.sampled_from(ds.window_objects())


def test_parse_and_text_roundtrip():
    assert o("o-o=o").dots == 3 and o("o-o=o").colored == frozenset({1})
    for obj in ds.window_objects():
        assert o(obj.text()) == obj
    with pytest.raises(ValueError):
        o("o-")
    with pytest.raises(ValueError):
        o("x")


def test_simplex_map_basics():
    f = ds.SimplexMap(2, 2, (0, 0, 2))
    assert f.values[1] == 0 and f.values[2] == 2
    assert ds.compose_simplex(ds.SimplexMap(1, 2, (0, 2)),
                              ds.SimplexMap(2, 1, (0, 0, 1))) == f
    with pytest.raises(ValueError):
        ds.SimplexMap(1, 1, (1, 0))
    with pytest.raises(ValueError):
        ds.SimplexMap(1, 1, (0, 2))


def test_cofaces_skip_and_codegeneracies_repeat():
    assert ds.coface(1, 2) == ds.SimplexMap(1, 2, (0, 2))
    assert ds.codegeneracy(0, 1) == ds.SimplexMap(2, 1, (0, 0, 1))
    for k in (1, 2, 3):
        for j in range(k):
            for i in (j, j + 1):
                assert ds.compose_simplex(ds.codegeneracy(j, k - 1), ds.coface(i, k)) == \
                    ds.identity_simplex(k - 1)


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
    # one two-dot piece per edge, matching its color
    pieces = [ds.ColoredOrdinal(2, frozenset({0} if i in src.colored else ()))
              for i in range(src.dots - 1)]
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


def test_window_objects_count_and_validation():
    shapes = ds.window_objects()
    assert len(shapes) == 15 and len(set(shapes)) == 15
    assert max(obj.dots for obj in shapes) == ds.MAX_DOTS
