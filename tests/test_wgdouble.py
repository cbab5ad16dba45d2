"""Double-category laws, Segal retractions, and the strictified diagram."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import pseudo as ps
from wgfair import wgdouble as wg

import corpus
from corpus import free_arrow
from test_cleavage_reference import validate_cleavage
from test_fincat import is_nat_iso


@pytest.fixture(scope="module")
def family():
    # two elements over the source object of an arrow, one over the target
    return corpus.surjection("family")


@pytest.fixture(scope="module")
def nerve():
    return corpus.surjection("nerve")


@pytest.fixture(scope="module")
def tf2():
    # one object downstairs, a two-element fiber upstairs
    return corpus.surjection("tf2")


@pytest.fixture(scope="module")
def family_tr2(family):
    x, _ = family
    return {s: wg.tr2_strong_segalic(x, strategy=s)
            for s in ("cleavage", "retraction")}


@pytest.fixture(scope="module")
def tf2_tr2(tf2):
    x, _ = tf2
    return {s: wg.tr2_strong_segalic(x, strategy=s)
            for s in ("cleavage", "retraction")}


# -- assembling instances ----------------------------------------------------


def test_empty_instance_is_fine_but_empty_base_is_not():
    empty = fc.discrete(0)
    nothing = fc.FunctorMap(empty, empty, [], [])
    x = wg.from_generators(empty, empty, nothing, nothing, nothing,
                           lambda u, v: u, lambda m, m2: m)
    assert wg.validate_catwg2(x) == []
    one = fc.discrete(1)
    with pytest.raises(ValueError, match="level zero is empty"):
        wg.from_generators(empty, one, fc.FunctorMap(one, empty, [0], [0]),
                           fc.FunctorMap(one, empty, [0], [0]),
                           fc.FunctorMap(empty, one, [], []),
                           lambda u, v: u, lambda m, m2: m)


def test_broken_section_is_rejected():
    x0, x1 = fc.discrete(2), fc.discrete(2)
    ident = fc.FunctorMap(x1, x0, [0, 1], [0, 1])
    swap = fc.FunctorMap(x0, x1, [1, 0], [1, 0])
    with pytest.raises(ValueError, match="not a section of the source map"):
        wg.from_generators(x0, x1, ident, ident, swap,
                           lambda u, v: u, lambda m, m2: m)


def test_nonassociative_composition_is_named():
    # e is the unit; (p.p).q = q while p.(p.q) = p
    x0, x1 = fc.discrete(1), fc.discrete(3)
    to_zero = fc.FunctorMap(x1, x0, [0, 0, 0], [0, 0, 0])
    s0 = fc.FunctorMap(x0, x1, [0], [0])

    def co(u, v):
        if u == 0:
            return v
        if v == 0:
            return u
        return 0 if (u, v) == (1, 2) else 1

    with pytest.raises(ValueError, match=r"not associative at triple \(1, 1, 2\)"):
        wg.from_generators(x0, x1, to_zero, to_zero, s0, co,
                           lambda m, m2: co(m, m2))


# -- the seven-arrow family instance ----------------------------------------


def test_family_pinned_sizes(family):
    x, _ = family
    assert (x.x0.n_obj, x.x0.n_mor) == (3, 5)
    assert (x.x1.n_obj, x.x1.n_mor) == (7, 21)
    assert x.pairs.cat.n_obj == 15
    assert x.chain(3).cat.n_obj == 31
    sd = wg.segal_data(x)
    assert sd.x0d.n_obj == 2
    assert sd.hat2.cat.n_obj == 27
    assert sd.hat3.cat.n_obj == 107


def test_family_is_weakly_globular(family):
    x, _ = family
    assert wg.validate_catwg2(x) == []


def test_tf2_pinned_sizes(tf2):
    x, _ = tf2
    assert (x.x0.n_obj, x.x0.n_mor) == (2, 4)
    assert (x.x1.n_obj, x.x1.n_mor) == (4, 16)
    assert x.pairs.cat.n_obj == 8
    sd = wg.segal_data(x)
    assert sd.hat2.cat.n_obj == 16
    assert sd.hat3.cat.n_obj == 64
    assert wg.validate_catwg2(x) == []


def test_segal_data_composes_each_anchor_with_the_quotient_once(monkeypatch):
    # both ranks match their tuples over the same two anchors: building Tr2
    # of the nerve composes 7 pairs of functors, none twice (12 with 4
    # repeats while each rank composed the quotient with its anchors, 8
    # while the cleavage search discretized level zero again, composing its
    # quotient with its section only to read the classes)
    x = corpus.double("nerve")
    calls, compose = [], fc.compose_functors

    def spy(g, f):
        calls.append((g, f))
        return compose(g, f)

    monkeypatch.setattr(fc, "compose_functors", spy)
    quotient = wg.segal_data(x).gamma
    assert [(g, f) for g, f in calls if f is x.d0 or f is x.d1] == [(quotient, x.d0),
                                                                    (quotient, x.d1)]
    wg.tr2_strong_segalic(x)
    pairs = [(id(g), id(f)) for g, f in calls]
    assert len(pairs) == len(set(pairs)) == 7


def test_micro_counterexample_fails_exactly_the_equivalence_axiom():
    x = wg.micro_counterexample()
    report = wg.validate_catwg2(x)
    assert len(report) == 2
    assert all(line.startswith("axiom (c)") for line in report)
    assert "essentially_surjective=False" in report[0]
    with pytest.raises(ValueError, match="not weakly globular"):
        wg.tr2_strong_segalic(x)
    with pytest.raises(ValueError, match="no transport"):
        wg.build_cleavage(x)


# -- nerve actions -----------------------------------------------------------


def test_ranks_outside_the_truncation_are_named(nerve):
    x, _ = nerve
    with pytest.raises(ValueError, match=r"^rank 4 has no chain"):
        x.level(4)
    with pytest.raises(ValueError, match=r"^rank 4 has no chain"):
        x.nerve_action(ds.SimplexMap(0, 4, (0,)))
    with pytest.raises(ValueError, match=r"^rank 4 has no chain"):
        wg.level_map(wg.identity_double_map(x), 4)
    with pytest.raises(ValueError, match=r"^rank 0 has no chain"):
        x.chain(0)


def test_nerve_action_is_functorial_exhaustively_on_the_nerve(nerve):
    x, _ = nerve
    site = ps.OrdinalSite(3)
    maps = site.maps
    for a in site.objects:
        assert x.nerve_action(maps[site.cat.identity[a]]) == \
            fc.identity_functor(x.level(a))
    for g, f in corpus.composable_pairs(site):
        assert x.nerve_action(maps[site.cat.compose(g, f)]) == \
            fc.compose_functors(x.nerve_action(maps[f]), x.nerve_action(maps[g]))


@pytest.mark.parametrize("which", ["family", "tf2", "micro"]
                         + corpus.seeds(range(12)))
def test_nerve_action_functorial_on_generating_maps(request, which):
    if which in ("family", "tf2"):
        x, _ = request.getfixturevalue(which)
    else:
        x = corpus.double(which)
    site = ps.OrdinalSite(3)
    maps = [ds.coface(i, k) for k in (1, 2, 3) for i in range(k + 1)]
    maps += [ds.codegeneracy(i, k) for k in (0, 1, 2) for i in range(k + 1)]
    maps += [ds.SimplexMap(1, k, (j - 1, j)) for k in (2, 3) for j in range(1, k + 1)]
    maps += [ds.SimplexMap(1, 0, (0, 0)), ds.SimplexMap(0, 2, (2,))]
    for f in maps:
        for g in maps:
            if f.tgt_rank != g.src_rank:
                continue
            gf = site.maps[site.cat.compose(site.index[g], site.index[f])]
            assert x.nerve_action(gf) == \
                fc.compose_functors(x.nerve_action(f), x.nerve_action(g))


# -- cleavages ---------------------------------------------------------------


def test_family_cleavage_is_lawful_and_canonical(family):
    x, aux = family
    table = wg.build_cleavage(x)
    assert validate_cleavage(x, table) == []
    # transport along a fiber switch keeps the base arrow and the target
    triples = aux["triples"]
    for (f, phi), (g, _lam) in table.items():
        s, b, s2 = triples[f]
        u, b2, u2 = triples[g]
        assert (b2, u2) == (b, s2)
        assert u == x.x0.src[phi]


def test_tf2_cleavage_is_lawful(tf2):
    x, _ = tf2
    assert validate_cleavage(x, wg.build_cleavage(x)) == []


def test_validate_cleavage_reports_a_missing_transport(family):
    x, _ = family
    table = wg.build_cleavage(x)
    assert table[(0, 2)] != (0, x.x1.identity[0])
    del table[(0, 2)]
    assert validate_cleavage(x, table) == ["no transport of (0, 2)"]


def test_validate_cleavage_reports_a_transport_with_the_wrong_target(family):
    x, _ = family
    table = wg.build_cleavage(x)
    g, lam = table[(0, 2)]
    far = next(a for a in range(x.x1.n_obj) if x.d0.obj(a) != x.d0.obj(g))
    table[(0, 2)] = (far, lam)
    problems = validate_cleavage(x, table)
    assert "transport of (0, 2) has wrong endpoints" in problems
    assert not any(p.startswith("composition") for p in problems)
    assert not any(p.startswith("pasting") for p in problems)


@pytest.fixture(scope="module")
def tagged_family(family):
    """The family with every cell doubled by a Z/2 tag that composing adds up.

    Cell (m, t) is numbered 2 m + t.  Each key then has two lawful
    transports, so a table can break pasting or composition compatibility
    while every entry stays lawful on its own.
    """
    x, _ = family
    x1 = x.x1
    cells = range(2 * x1.n_mor)
    t1 = fc.FinCat(x1.n_obj, [x1.src[m // 2] for m in cells], [x1.tgt[m // 2] for m in cells],
                   [2 * e for e in x1.identity],
                   {(2 * g + s, 2 * f + t): 2 * h + (s ^ t)
                    for (g, f), h in x1.comp.items() for s in (0, 1) for t in (0, 1)})
    d0, d1 = (fc.FunctorMap(t1, x.x0, d.obj_map, [d.mor_map[m // 2] for m in cells])
              for d in (x.d0, x.d1))
    s0 = fc.FunctorMap(x.x0, t1, x.s0.obj_map, [2 * m for m in x.s0.mor_map])
    return wg.from_generators(
        x.x0, t1, d0, d1, s0, lambda f, g: x.comp.obj(x.pairs.obj_id[(f, g)]),
        lambda m, n: 2 * x.comp.mor(x.pairs.mor_id[(m // 2, n // 2)]) + (m % 2 ^ n % 2))


def test_tagged_family_has_two_lawful_cleavages(tagged_family):
    y = tagged_family
    table = wg.build_cleavage(y)
    assert all(lam % 2 == 0 for _g, lam in table.values())
    assert validate_cleavage(y, table) == []
    # tag every transport along a non-identity isomorphism
    flipped = {(f, phi): (g, lam if phi in y.x0.identity else lam ^ 1)
               for (f, phi), (g, lam) in table.items()}
    assert flipped != table
    assert validate_cleavage(y, flipped) == []


@pytest.mark.parametrize("instance, edit, want", [
    ("family", {(0, 2): (0, 0)}, ["transport of (0, 2) has wrong endpoints",
                                  "cell of (0, 2) has the wrong vertical shadow"]),
    ("family", {(6, 4): (6, 8)}, ["cell of (6, 4) is not an isomorphism onto the arrow",
                                  "identity transport of arrow 6 is not trivial"]),
    # tag the transports along 1 : 0 -> 1 but not those along 2 : 1 -> 0
    ("tagged_family", {(3, 1): (0, 5), (4, 1): (1, 15), (5, 1): (2, 19)}, [
        "pasting law fails for arrow 0 along (2, 1)",
        "pasting law fails for arrow 1 along (2, 1)",
        "pasting law fails for arrow 2 along (2, 1)",
        "pasting law fails for arrow 3 along (1, 2)",
        "pasting law fails for arrow 4 along (1, 2)",
        "pasting law fails for arrow 5 along (1, 2)"]),
    # tag the transports of arrow 2 and those onto it: pasting still holds
    ("tagged_family", {(2, 2): (5, 37), (5, 1): (2, 19)}, [
        "composition compatibility fails at pair 2 along 2",
        "composition compatibility fails at pair 5 along 2",
        "composition compatibility fails at pair 9 along 1",
        "composition compatibility fails at pair 12 along 1"]),
    # isomorphism 1 runs 0 -> 1, but arrow 0 starts at 0
    ("family", {(0, 1): (0, 0)}, [
        "key (0, 1) is not an isomorphism into the source of arrow 0",
        "cell of (0, 1) has the wrong vertical shadow"]),
], ids=["shadow", "identity", "pasting", "composition", "key"])
def test_validate_cleavage_names_each_broken_law(request, instance, edit, want):
    x = request.getfixturevalue(instance)
    x = x[0] if instance == "family" else x
    table = wg.build_cleavage(x)
    table.update(edit)
    assert validate_cleavage(x, table) == want


def test_validate_cleavage_reports_every_single_entry_edit(family):
    # replace one entry, or add one key, with every (arrow, cell): each such
    # table is reported, and none raises
    x, _ = family
    table = wg.build_cleavage(x)
    keys = [(f, phi) for f in range(x.x1.n_obj) for phi in range(x.x0.n_mor)]
    edits = 0
    for key in keys:
        for entry in ((g, lam) for g in range(x.x1.n_obj) for lam in range(x.x1.n_mor)):
            if table.get(key) == entry:
                continue
            edited = dict(table)
            edited[key] = entry
            edits += 1
            assert validate_cleavage(x, edited), (key, entry)
    assert edits == len(keys) * x.x1.n_obj * x.x1.n_mor - len(table)


@pytest.mark.parametrize("key, entry", [((0, 99), (0, 0)), ((99, 0), (0, 0)),
                                        ((0, 0), (99, 0)), ((0, 0), (0, 99))])
def test_validate_cleavage_rejects_a_table_outside_the_instance(nerve, key, entry):
    x, _ = nerve
    with pytest.raises(ValueError, match=r"cleavage key \(%d, %d\) names an arrow, morphism"
                                         r" or cell outside the instance" % key):
        validate_cleavage(x, {key: entry})


# -- retraction strategies ---------------------------------------------------


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_sections_retract_the_segal_maps(family, strategy):
    x, _ = family
    sd = wg.segal_data(x)
    r = wg.segal_retractions(x, strategy)
    for nu, muhat, counit, level in (
            (r.nu2, sd.muhat2, r.counit2, x.pairs.cat),
            (r.nu3, sd.muhat3, r.counit3, x.chain(3).cat)):
        assert fc.validate_functor(nu) == []
        assert fc.compose_functors(nu, muhat) == fc.identity_functor(level)
        assert fc.validate_nat(counit) == []
        assert is_nat_iso(counit)
        # triangle law: the section sends every counit component to an identity
        for y in range(counit.source.source.n_obj):
            m = counit.components[y]
            assert nu.mor(m) == level.identity[nu.obj(y)]


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tf2_sections_move_something(tf2, strategy):
    x, _ = tf2
    sd = wg.segal_data(x)
    r = wg.segal_retractions(x, strategy)
    idents = set(sd.hat2.cat.identity)
    assert any(c not in idents for c in r.counit2.components)


def test_unknown_strategy_is_rejected(family):
    x, _ = family
    with pytest.raises(ValueError, match="unknown strategy"):
        wg.segal_retractions(x, "guess")


# -- the strictified diagram -------------------------------------------------


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_family_identities_are_exact(family_tr2, strategy):
    res = family_tr2[strategy]
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_family_cells_on_generating_pairs(family_tr2, strategy):
    res = family_tr2[strategy]
    site = res.diagram.site
    maps = [ds.coface(i, k) for k in (1, 2) for i in range(k + 1)]
    maps += [ds.codegeneracy(i, k) for k in (0, 1) for i in range(k + 1)]
    maps += [ds.SimplexMap(1, 2, (0, 1)), ds.SimplexMap(1, 2, (1, 2)),
             ds.SimplexMap(1, 0, (0, 0)), ds.SimplexMap(0, 2, (2,)),
             ds.SimplexMap(0, 1, (1,)), ds.SimplexMap(2, 1, (0, 1, 1))]
    for f in map(site.index.get, maps):
        for g in map(site.index.get, maps):
            if site.cat.tgt[f] != site.cat.src[g]:
                continue
            cell = res.diagram.cell(g, f)
            assert cell.source == fc.compose_functors(res.diagram.action(f),
                                                      res.diagram.action(g))
            assert cell.target == res.diagram.action(site.cat.compose(g, f))
            assert fc.validate_nat(cell) == []
            assert is_nat_iso(cell)


def test_tr2_family_has_a_nontrivial_cell_through_level_zero(family_tr2):
    res = family_tr2["cleavage"]
    index = res.diagram.site.index
    f = index[ds.SimplexMap(1, 0, (0, 0))]
    g = index[ds.SimplexMap(0, 2, (1,))]
    cell = res.diagram.cell(g, f)
    idents = set(res.base.x1.identity)
    assert any(c not in idents for c in cell.components)


def is_strict(diagram):
    """True when every action composes on the nose and every cell is identity."""
    site = diagram.site
    for g, f in corpus.composable_pairs(site):
        composite = fc.compose_functors(diagram.action(f), diagram.action(g))
        if composite != diagram.action(site.cat.compose(g, f)):
            return False
        cell = diagram.cell(g, f)
        if any(c != composite.target.identity[composite.obj_map[x]]
               for x, c in enumerate(cell.components)):
            return False
    return True


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_nerve_is_strict_with_full_coherence(nerve, strategy):
    x, _ = nerve
    res = wg.tr2_strong_segalic(x, strategy=strategy)
    assert ps.validate_pseudo(res.diagram, coherence=True) == []
    assert is_strict(res.diagram)
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_tf2_full_coherence(tf2_tr2, strategy):
    res = tf2_tr2[strategy]
    assert ps.validate_pseudo(res.diagram, coherence=True) == []
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


def answering(res, f_star, g_star):
    """res with a diagram that answers the site map f_star with g_star's action."""
    d = res.diagram
    f_star, g_star = d.site.index[f_star], d.site.index[g_star]
    tampered = ps.PseudoDiagram(d.site, d.level,
                                lambda f: d.action(g_star if f == f_star else f),
                                lambda g, f: d.cell(g, f).components)
    return dataclasses.replace(res, diagram=tampered)


def test_tr2_face_report_names_each_broken_identity(tf2_tr2):
    # d1 on level 3 answered by d2: the identities reading d1 there, as the
    # later or the earlier face, fail, except (1, 2), where both sides use d2
    res = answering(tf2_tr2["cleavage"], ds.coface(1, 3), ds.coface(2, 3))
    assert wg.tr2_face_report(res) == ["face identity (0,1) fails at level 3",
                                       "face identity (1,3) fails at level 3"]
    assert wg.tr2_segal_report(res) == []


def test_tr2_segal_report_names_a_moved_spine_leg(tf2_tr2):
    # level zero discretizes to one point, so any two legs form a cone; the
    # first spine leg of level 2 answered by the second is not a projection
    res = answering(tf2_tr2["cleavage"], ds.SimplexMap(1, 2, (0, 1)),
                    ds.SimplexMap(1, 2, (1, 2)))
    assert wg.tr2_segal_report(res) == ["assembled Segal map at level 2 is not the identity"]


# -- induced maps of strictified diagrams ------------------------------------


def test_collapse_is_a_double_map(family, nerve):
    fmap = corpus.collapse_map(family, nerve)
    assert wg.validate_double_map(fmap) == []


def test_tr2_map_ladder_is_exact_for_canonical_sections(family, nerve, family_tr2):
    fmap = corpus.collapse_map(family, nerve)
    res_n = wg.tr2_strong_segalic(nerve[0], strategy="cleavage")
    for strategy in ("cleavage", "retraction"):
        res_f = family_tr2[strategy]
        same = wg.tr2_map(wg.identity_double_map(family[0]), res_f, res_f)
        assert same["report"] == []
        assert same["components"][2] == fc.identity_functor(res_f.segal.hat2.cat)
    out = wg.tr2_map(fmap, family_tr2["cleavage"], res_n)
    assert out["report"] == []
    for k in range(4):
        assert fc.validate_functor(out["components"][k]) == []


def test_tr2_map_mismatched_sections_fail_only_off_the_projections(tf2_tr2):
    a, b = tf2_tr2["retraction"], tf2_tr2["cleavage"]
    out = wg.tr2_map(wg.identity_double_map(a.base), a, b)
    allowed = {"face square 1 at level 2 is not exact"}
    allowed |= {"face square %d at level 3 is not exact" % i for i in range(4)}
    assert set(out["report"]) <= allowed
    differ = a.retr.nu2 != b.retr.nu2 or a.retr.nu3 != b.retr.nu3
    assert bool(out["report"]) == differ


def test_tr2_map_rejects_a_map_between_other_instances(nerve, family_tr2):
    res = family_tr2["cleavage"]
    with pytest.raises(ValueError, match="does not run between the instances"):
        wg.tr2_map(wg.identity_double_map(nerve[0]), res, res)


# -- fundamental category and 2-equivalences ---------------------------------


def test_family_pi1_is_the_base(family):
    x, aux = family
    p = wg.pi1_double(x)
    comp = wg.pi1_base_functor(aux, p)
    flags = fc.equivalence_flags(comp)
    assert flags["is_equivalence"] and flags["injective_on_objects"]
    assert p.cat.n_obj == aux["base"].n_obj
    assert p.cat.n_mor == aux["base"].n_mor


def test_pi1_base_functor_names_a_base_that_composes_otherwise():
    # the nerve of Z/3 against the monoid on the same cells composing by max
    x, aux = wg.from_base_category(corpus.cyclic3())
    by_max = fc.FinCat(1, [0] * 3, [0] * 3, [0],
                       {(i, j): max(i, j) for i in range(3) for j in range(3)})
    assert fc.validate_category(by_max) == []
    with pytest.raises(ValueError, match="^comparison onto the base is not a functor:"
                                         " composition of"):
        wg.pi1_base_functor(dict(aux, base=by_max), wg.pi1_double(x))


def test_micro_composition_does_not_descend():
    x = wg.micro_counterexample()
    with pytest.raises(ValueError, match="no composable representatives"):
        wg.pi1_double(x)


def test_hom_fibers_of_the_family(family):
    x, _ = family
    sub, incl = wg.hom_fiber(x, 0, 1)
    assert (sub.n_obj, sub.n_mor) == (2, 4)
    assert fc.validate_functor(incl) == []
    empty, _ = wg.hom_fiber(x, 1, 0)
    assert empty.n_obj == 0


@pytest.mark.parametrize("a, b, bad", [(7, 0, 7), (0, 2, 2), (-1, 0, -1)])
def test_hom_fiber_rejects_a_class_out_of_range(nerve, a, b, bad):
    x, _ = nerve
    with pytest.raises(ValueError, match="point class %d is not one of the 2 point classes"
                                         % bad):
        wg.hom_fiber(x, a, b)


def test_short_vertical_component_is_rejected_before_indexing(nerve):
    # f0 covers one of the two points; validate_double_map already refuses it
    x, _ = nerve
    fmap = wg.DoubleMap(x, x, fc.FunctorMap(x.x0, x.x0, [0], [0]),
                        fc.identity_functor(x.x1))
    for check in (wg.is_2equivalence_double, wg.pi1_map, wg.validate_double_map):
        with pytest.raises(ValueError, match="functor map lengths disagree with the source"):
            check(fmap)


WRONG_LEVEL_CHECKS = {
    "pi1_map": wg.pi1_map,
    "is_2equivalence_double": wg.is_2equivalence_double,
    "validate_double_map": wg.validate_double_map,
    "level_map": lambda fmap: wg.level_map(fmap, 2),
    "tr2_map": lambda fmap: wg.tr2_map(fmap, wg.tr2_strong_segalic(fmap.source),
                                       wg.tr2_strong_segalic(fmap.target)),
}


@pytest.mark.parametrize("check", sorted(WRONG_LEVEL_CHECKS))
def test_a_component_between_the_wrong_levels_is_named(family, nerve, check):
    # the components of the nerve's identity, put on a map from the family:
    # the map is refused where it is built, before any check reads it
    x, y = family[0], nerve[0]
    with pytest.raises(ValueError, match="^the vertical component does not run between"
                                         " the ends' x0$"):
        WRONG_LEVEL_CHECKS[check](wg.DoubleMap(x, y, fc.identity_functor(y.x0),
                                               fc.identity_functor(y.x1)))
    f0 = corpus.collapse_map(family, nerve).f0
    with pytest.raises(ValueError, match="^the horizontal component does not run between"
                                         " the ends' x1$"):
        WRONG_LEVEL_CHECKS[check](wg.DoubleMap(x, y, f0, fc.identity_functor(y.x1)))


@pytest.mark.parametrize("component, level", [("points", "x0"), ("arrows", "x1")])
def test_short_component_is_named_with_both_lengths(nerve, component, level):
    x, _ = nerve
    maps = {"x0": fc.identity_functor(x.x0), "x1": fc.identity_functor(x.x1)}
    cat = getattr(x, level)
    maps[level] = fc.FunctorMap(cat, cat, [0], range(cat.n_mor))
    with pytest.raises(ValueError) as err:
        wg.is_2equivalence_double(wg.DoubleMap(x, x, maps["x0"], maps["x1"]))
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's object map"
        " has length 1 but the source has %d objects" % (component, cat.n_obj))


@pytest.mark.parametrize("tag, level", [("vertical", "x0"), ("horizontal", "x1")])
def test_validate_double_map_names_a_short_component(nerve, tag, level):
    x, _ = nerve
    maps = {"x0": fc.identity_functor(x.x0), "x1": fc.identity_functor(x.x1)}
    cat = getattr(x, level)
    maps[level] = fc.FunctorMap(cat, cat, [0], range(cat.n_mor))
    with pytest.raises(ValueError) as err:
        wg.validate_double_map(wg.DoubleMap(x, x, maps["x0"], maps["x1"]))
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's object map"
        " has length 1 but the source has %d objects" % (tag, cat.n_obj))


def tr2_map_on_the_source(fmap):
    res = wg.tr2_strong_segalic(fmap.source)
    return wg.tr2_map(fmap, res, res)


SHORT_COMPONENT_READERS = {
    "level_map 0": lambda fmap: wg.level_map(fmap, 0),
    "level_map 1": lambda fmap: wg.level_map(fmap, 1),
    "level_map 2": lambda fmap: wg.level_map(fmap, 2),
    "level_map 3": lambda fmap: wg.level_map(fmap, 3),
    "tr2_map": tr2_map_on_the_source,
}


@pytest.mark.parametrize("reader, component", [
    ("level_map 0", "points"), ("level_map 1", "arrows"), ("level_map 2", "arrows"),
    ("level_map 3", "arrows"), ("tr2_map", "points"), ("tr2_map", "arrows")])
def test_short_component_is_named_by_the_reader_that_takes_it(nerve, reader, component):
    # each reader checks the shape of the components it reads, so none of
    # them indexes past the end of a short map
    x, _ = nerve
    level = {"points": "x0", "arrows": "x1"}[component]
    maps = {"x0": fc.identity_functor(x.x0), "x1": fc.identity_functor(x.x1)}
    cat = getattr(x, level)
    maps[level] = fc.FunctorMap(cat, cat, [0], [0])
    with pytest.raises(ValueError) as err:
        SHORT_COMPONENT_READERS[reader](wg.DoubleMap(x, x, maps["x0"], maps["x1"]))
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's object map"
        " has length 1 but the source has %d objects" % (component, cat.n_obj))


def test_collapse_is_a_2equivalence(family, nerve):
    fmap = corpus.collapse_map(family, nerve)
    flags = wg.is_2equivalence_double(fmap)
    assert flags["is_2equivalence"]
    assert flags["is_2equivalence_relaxed"]
    assert fc.equivalence_flags(wg.pi1_map(fmap))["is_equivalence"]
    ident = wg.identity_double_map(family[0])
    assert wg.is_2equivalence_double(ident)["is_2equivalence"]


def test_point_inclusion_is_not_a_2equivalence(nerve):
    y, yaux = nerve
    x, aux = wg.generate_random_wg(0, max_base_objects=1, max_fiber=1)
    base = aux["base"]
    t0 = yaux["triple_id"][(0, free_arrow().identity[0], 0)]
    f0 = fc.FunctorMap(x.x0, y.x0, [0], [0])
    f1 = fc.FunctorMap(x.x1, y.x1, [t0], [y.x1.identity[t0]])
    fmap = wg.DoubleMap(x, y, f0, f1)
    assert wg.validate_double_map(fmap) == []
    flags = wg.is_2equivalence_double(fmap)
    assert flags["hom_fiber_equivalences"]
    assert not flags["pi1_equivalence"]
    assert not flags["is_2equivalence"]
    assert not flags["is_2equivalence_relaxed"]
    # pi* reflects the verdict: the fair image gets the same flags
    image = f2.pi_star_map(fmap, f2.pi_star(x), f2.pi_star(y))
    assert f2.is_2equivalence_fair(image) == flags


def test_2equivalence_rejects_an_arrow_moved_out_of_its_hom_fiber(family):
    fmap = corpus.moved_arrow_map(family[0])
    with pytest.raises(ValueError, match=r"arrow 1 over classes \(0, 0\) is sent to 2,"
                                         r" outside hom fiber \(0, 0\)"):
        wg.is_2equivalence_double(fmap)


def test_validate_double_map_lists_failed_squares_without_raising(family):
    problems = wg.validate_double_map(corpus.moved_arrow_map(family[0]))
    assert problems[0].startswith("horizontal component is not a functor")
    assert problems[1:] == ["target square does not commute"]


# -- rebasing level zero -----------------------------------------------------


def level_zero_rebasing(res):
    """The Tr2 diagram's faces [0] -> [1] and degeneracy [1] -> [0]."""
    d, index = res.diagram, res.diagram.site.index
    return ([d.action(index[ds.coface(i, 1)]) for i in (0, 1)],
            d.action(index[ds.codegeneracy(0, 0)]))


def test_tr2_rebases_level_zero_of_the_family(family, family_tr2):
    x, _ = family
    res = family_tr2["cleavage"]
    faces, degen = level_zero_rebasing(res)
    assert res.diagram.level(0).n_obj == 2
    assert res.diagram.level(1) is x.x1
    assert fc.equivalence_flags(res.segal.gamma_section)["is_equivalence"]
    for face in faces:
        assert fc.compose_functors(face, degen) == fc.identity_functor(res.diagram.level(0))


def test_tr2_keeps_a_discrete_level_zero(nerve):
    x, _ = nerve
    res = wg.tr2_strong_segalic(x)
    faces, _ = level_zero_rebasing(res)
    for i in (0, 1):
        assert faces[i] == (x.d0, x.d1)[i]
    assert res.segal.gamma_section == fc.identity_functor(x.x0)


# -- generators --------------------------------------------------------------


def test_surjection_must_be_onto():
    with pytest.raises(ValueError, match="not a surjection"):
        wg.generate_from_surjection(free_arrow(), [0, 0, 0])


def test_bounds_one_one_gives_the_terminal_instance():
    x, _ = wg.generate_random_wg(7, max_base_objects=1, max_fiber=1)
    assert (x.x0.n_obj, x.x1.n_obj, x.pairs.cat.n_obj) == (1, 1, 1)


@pytest.mark.parametrize("bound", ["max_base_objects", "max_fiber"])
def test_bounds_below_one_are_refused(bound):
    # they used to fail inside random with "empty range for randrange()"
    with pytest.raises(ValueError, match="^%s must be at least 1, not 0$" % bound):
        wg.generate_random_wg(1, **{bound: 0})


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_instances_validate_and_strictify(seed):
    x, aux = wg.generate_random_wg(seed, max_base_objects=2, max_fiber=2)
    assert wg.validate_catwg2(x) == []
    p = wg.pi1_double(x)
    comp = wg.pi1_base_functor(aux, p)
    assert fc.is_equivalence(comp)
    res = wg.tr2_strong_segalic(x, strategy="cleavage")
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


def test_only_raises_under_python_optimize():
    # the result guards must survive -O, which strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(wg.__file__)))
    code = "\n".join([
        "from wgfair import anchored",
        "if __debug__:",
        "    raise SystemExit('not running under -O')",
        "try:",
        "    anchored.only([1, 2])",
        "except ValueError:",
        "    raise SystemExit(0)",
        "raise SystemExit('anchored.only returned a value')",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
