"""Double-category laws, Segal retractions, and the strictified diagram."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wgfair import deltasite as ds
from wgfair import fincat as fc
from wgfair import pseudo as ps
from wgfair import wgdouble as wg


def free_arrow_base():
    return fc.thin_from_preorder(2, [(0, 0), (0, 1), (1, 1)])


def point_base():
    return fc.thin_from_preorder(1, [(0, 0)])


@pytest.fixture(scope="module")
def family():
    # two elements over the source object of an arrow, one over the target
    return wg.generate_from_surjection(free_arrow_base(), [0, 0, 1])


@pytest.fixture(scope="module")
def nerve():
    return wg.from_base_category(free_arrow_base())


@pytest.fixture(scope="module")
def tf2():
    # one object downstairs, a two-element fiber upstairs
    return wg.generate_from_surjection(point_base(), [0, 0])


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
    assert x.triples.cat.n_obj == 31
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
    for a in site.objects:
        assert x.nerve_action(site.identity(a)) == \
            fc.identity_functor(x.level(a))
    for g, f in ps.composable_pairs(site):
        assert x.nerve_action(site.compose(g, f)) == \
            fc.compose_functors(x.nerve_action(f), x.nerve_action(g))


@pytest.mark.parametrize("which", ["family", "tf2", "micro"]
                         + ["seed %d" % s for s in range(12)])
def test_nerve_action_functorial_on_generating_maps(request, which):
    if which == "micro":
        x = wg.micro_counterexample()
    elif which.startswith("seed"):
        x, _ = wg.generate_random_wg(int(which.split()[1]))
    else:
        x, _ = request.getfixturevalue(which)
    site = ps.OrdinalSite(3)
    maps = [wg._delta(i, k) for k in (1, 2, 3) for i in range(k + 1)]
    maps += [wg._sigma(i, k) for k in (0, 1, 2) for i in range(k + 1)]
    maps += [ds.SimplexMap(1, k, (j - 1, j)) for k in (2, 3) for j in range(1, k + 1)]
    maps += [ds.SimplexMap(1, 0, (0, 0)), ds.SimplexMap(0, 2, (2,))]
    for f in maps:
        for g in maps:
            if f.tgt_rank != g.src_rank:
                continue
            assert x.nerve_action(site.compose(g, f)) == \
                fc.compose_functors(x.nerve_action(f), x.nerve_action(g))


# -- cleavages ---------------------------------------------------------------


def test_family_cleavage_is_lawful_and_canonical(family):
    x, aux = family
    table = wg.build_cleavage(x)
    assert wg.validate_cleavage(x, table) == []
    # transport along a fiber switch keeps the base arrow and the target
    triples = aux["triples"]
    for (f, phi), (g, _lam) in table.items():
        s, b, s2 = triples[f]
        u, b2, u2 = triples[g]
        assert (b2, u2) == (b, s2)
        assert u == x.x0.src[phi]


def test_tf2_cleavage_is_lawful(tf2):
    x, _ = tf2
    assert wg.validate_cleavage(x, wg.build_cleavage(x)) == []


def test_validate_cleavage_reports_a_missing_transport(family):
    x, _ = family
    table = wg.build_cleavage(x)
    assert table[(0, 2)] != (0, x.x1.identity[0])
    del table[(0, 2)]
    assert wg.validate_cleavage(x, table) == ["no transport of (0, 2)"]


def test_validate_cleavage_reports_a_transport_with_the_wrong_target(family):
    x, _ = family
    table = wg.build_cleavage(x)
    g, lam = table[(0, 2)]
    far = next(a for a in range(x.x1.n_obj) if x.d0.obj(a) != x.d0.obj(g))
    table[(0, 2)] = (far, lam)
    problems = wg.validate_cleavage(x, table)
    assert "transport of (0, 2) has wrong endpoints" in problems
    assert not any(p.startswith("composition") for p in problems)
    assert not any(p.startswith("pasting") for p in problems)


@pytest.mark.parametrize("key, entry", [((0, 99), (0, 0)), ((99, 0), (0, 0)),
                                        ((0, 0), (99, 0)), ((0, 0), (0, 99))])
def test_validate_cleavage_rejects_a_table_outside_the_instance(nerve, key, entry):
    x, _ = nerve
    with pytest.raises(ValueError, match=r"cleavage key \(%d, %d\) names an arrow, morphism"
                                         r" or cell outside the instance" % key):
        wg.validate_cleavage(x, {key: entry})


# -- retraction strategies ---------------------------------------------------


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_sections_retract_the_segal_maps(family, strategy):
    x, _ = family
    sd = wg.segal_data(x)
    r = wg.segal_retractions(x, sd, strategy)
    for nu, muhat, counit, level in (
            (r.nu2, sd.muhat2, r.counit2, x.pairs.cat),
            (r.nu3, sd.muhat3, r.counit3, x.triples.cat)):
        assert fc.validate_functor(nu) == []
        assert fc.compose_functors(nu, muhat) == fc.identity_functor(level)
        assert fc.validate_nat(counit) == []
        assert fc.is_nat_iso(counit)
        # triangle law: the section sends every counit component to an identity
        for y in range(counit.source.source.n_obj):
            m = counit.components[y]
            assert nu.mor(m) == level.identity[nu.obj(y)]


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tf2_sections_move_something(tf2, strategy):
    x, _ = tf2
    sd = wg.segal_data(x)
    r = wg.segal_retractions(x, sd, strategy)
    idents = set(sd.hat2.cat.identity)
    assert any(c not in idents for c in r.counit2.components)


def test_unknown_strategy_is_rejected(family):
    x, _ = family
    with pytest.raises(ValueError, match="unknown strategy"):
        wg.segal_retractions(x, wg.segal_data(x), "guess")


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
    maps = [wg._delta(i, k) for k in (1, 2) for i in range(k + 1)]
    maps += [wg._sigma(i, k) for k in (0, 1) for i in range(k + 1)]
    maps += [ds.SimplexMap(1, 2, (0, 1)), ds.SimplexMap(1, 2, (1, 2)),
             ds.SimplexMap(1, 0, (0, 0)), ds.SimplexMap(0, 2, (2,)),
             ds.SimplexMap(0, 1, (1,)), ds.SimplexMap(2, 1, (0, 1, 1))]
    for f in maps:
        for g in maps:
            if f.tgt_rank != g.src_rank:
                continue
            cell = res.diagram.cell(g, f)
            assert cell.source == fc.compose_functors(res.diagram.action(f),
                                                      res.diagram.action(g))
            assert cell.target == res.diagram.action(site.compose(g, f))
            assert fc.validate_nat(cell) == []
            assert fc.is_nat_iso(cell)


def test_tr2_family_has_a_nontrivial_cell_through_level_zero(family_tr2):
    res = family_tr2["cleavage"]
    f = ds.SimplexMap(1, 0, (0, 0))
    g = ds.SimplexMap(0, 2, (1,))
    cell = res.diagram.cell(g, f)
    idents = set(res.base.x1.identity)
    assert any(c not in idents for c in cell.components)


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_nerve_is_strict_with_full_coherence(nerve, strategy):
    x, _ = nerve
    res = wg.tr2_strong_segalic(x, strategy=strategy)
    assert ps.validate_pseudo(res.diagram, coherence=True) == []
    assert ps.is_strict(res.diagram)
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_tr2_tf2_full_coherence(tf2_tr2, strategy):
    res = tf2_tr2[strategy]
    assert ps.validate_pseudo(res.diagram, coherence=True) == []
    assert wg.tr2_face_report(res) == []
    assert wg.tr2_segal_report(res) == []


# -- induced maps of strictified diagrams ------------------------------------


def collapse_map(family, nerve):
    x, aux = family
    y, yaux = nerve
    t = aux["assignment"]
    base = aux["base"]
    f0 = fc.FunctorMap(
        x.x0, y.x0, list(t),
        [yaux["x0_mor_id"][(t[x.x0.src[m]], t[x.x0.tgt[m]])]
         for m in range(x.x0.n_mor)])
    trip = aux["triples"]

    def im(i):
        s, b, s2 = trip[i]
        return yaux["triple_id"][(t[s], b, t[s2])]

    f1 = fc.FunctorMap(
        x.x1, y.x1, [im(i) for i in range(x.x1.n_obj)],
        [yaux["x1_mor_id"][(im(x.x1.src[m]), im(x.x1.tgt[m]))]
         for m in range(x.x1.n_mor)])
    return wg.DoubleMap(x, y, f0, f1)


def test_collapse_is_a_double_map(family, nerve):
    fmap = collapse_map(family, nerve)
    assert wg.validate_double_map(fmap) == []


def test_tr2_map_ladder_is_exact_for_canonical_sections(family, nerve, family_tr2):
    fmap = collapse_map(family, nerve)
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
    comp = wg.pi1_base_functor(x, aux, p)
    flags = fc.equivalence_flags(comp)
    assert flags["is_equivalence"] and flags["injective_on_objects"]
    assert p.cat.n_obj == aux["base"].n_obj
    assert p.cat.n_mor == aux["base"].n_mor


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


def test_collapse_is_a_2equivalence(family, nerve):
    fmap = collapse_map(family, nerve)
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
    t0 = yaux["triple_id"][(0, free_arrow_base().identity[0], 0)]
    f0 = fc.FunctorMap(x.x0, y.x0, [0], [0])
    f1 = fc.FunctorMap(x.x1, y.x1, [t0], [y.x1.identity[t0]])
    fmap = wg.DoubleMap(x, y, f0, f1)
    assert wg.validate_double_map(fmap) == []
    flags = wg.is_2equivalence_double(fmap)
    assert flags["hom_fiber_equivalences"]
    assert not flags["pi1_equivalence"]
    assert not flags["is_2equivalence"]
    assert not flags["is_2equivalence_relaxed"]


def moved_arrow_map(x):
    """The identity, except that arrow 1 goes to the first arrow whose end
    classes differ from those of arrow 0 (arrow 1 shares arrow 0's)."""
    cls = wg.pi1_double(x).obj_class_of
    ends = [(cls[x.d1.obj(a)], cls[x.d0.obj(a)]) for a in range(x.x1.n_obj)]
    assert ends[1] == ends[0]
    f1 = list(range(x.x1.n_obj))
    f1[1] = next(a for a in range(x.x1.n_obj) if ends[a] != ends[0])
    return wg.DoubleMap(x, x, fc.identity_functor(x.x0),
                        fc.FunctorMap(x.x1, x.x1, f1, range(x.x1.n_mor)))


def test_2equivalence_rejects_an_arrow_moved_out_of_its_hom_fiber(family):
    fmap = moved_arrow_map(family[0])
    with pytest.raises(ValueError, match=r"arrow 1 over classes \(0, 0\) is sent to 2,"
                                         r" outside hom fiber \(0, 0\)"):
        wg.is_2equivalence_double(fmap)


def test_validate_double_map_lists_failed_squares_without_raising(family):
    problems = wg.validate_double_map(moved_arrow_map(family[0]))
    assert problems[0].startswith("horizontal component is not a functor")
    assert problems[1:] == ["target square does not commute"]


# -- rebasing level zero -----------------------------------------------------


def test_d2_construction_family(family):
    x, _ = family
    d2 = wg.d2_construction(x)
    assert d2.levels[0].n_obj == 2
    assert d2.levels[1] is x.x1
    assert all(flags["is_equivalence"] for flags in d2.comparison_flags)
    for i in (0, 1):
        assert fc.compose_functors(d2.face[(1, i)], d2.degen[(0, 0)]) == \
            fc.identity_functor(d2.levels[0])


def test_d2_construction_fixes_discrete_level_zero(nerve):
    x, _ = nerve
    d2 = wg.d2_construction(x)
    for i in (0, 1):
        assert d2.face[(1, i)] == (x.d0, x.d1)[i]
    assert d2.comparison[0] == fc.identity_functor(x.x0)


# -- generators --------------------------------------------------------------


def test_surjection_must_be_onto():
    with pytest.raises(ValueError, match="not a surjection"):
        wg.generate_from_surjection(free_arrow_base(), [0, 0, 0])


def test_bounds_one_one_gives_the_terminal_instance():
    x, _ = wg.generate_random_wg(7, max_base_objects=1, max_fiber=1)
    assert (x.x0.n_obj, x.x1.n_obj, x.pairs.cat.n_obj) == (1, 1, 1)


def test_random_hd_instances_are_homotopically_discrete():
    for seed in range(6):
        cat = wg.generate_random_hd(seed)
        assert fc.is_homotopically_discrete(cat)[0]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_instances_validate_and_strictify(seed):
    x, aux = wg.generate_random_wg(seed, max_base_objects=2, max_fiber=2)
    assert wg.validate_catwg2(x) == []
    p = wg.pi1_double(x)
    comp = wg.pi1_base_functor(x, aux, p)
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
