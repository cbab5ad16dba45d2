"""Fair structures: presentation laws, window evaluation, rebasing, maps."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from wgfair import anchored as an
from wgfair import deltasite as ds
from wgfair import fincat as fc
from wgfair import fair2 as f2
from wgfair import wgdouble as wg

import corpus
from corpus import cyclic3, free_arrow


@pytest.fixture(scope="module")
def arrow_fair():
    return f2.fair_from_category(free_arrow())


@pytest.fixture(scope="module")
def family():
    return corpus.surjection("family")


@pytest.fixture(scope="module")
def family_fair(family):
    x, _ = family
    return f2.pi_star(x)


@pytest.fixture(scope="module")
def nerve():
    return corpus.surjection("nerve")


@pytest.fixture(scope="module")
def nerve_fair(nerve):
    # the free arrow again, up to the numbering of its arrows
    return f2.pi_star(nerve[0])


@pytest.fixture(scope="module")
def collapse(family, nerve, family_fair, nerve_fair):
    """pi* of the collapse of the family onto the nerve."""
    return f2.pi_star_map(corpus.collapse_map(family, nerve), family_fair, nerve_fair)


@pytest.fixture(scope="module")
def family_discrete(family_fair):
    return f2.discretize_fair(family_fair)


@pytest.fixture(scope="module")
def tf2_fair():
    return f2.pi_star(corpus.double("tf2"))


# -- presentations and window evaluation -------------------------------------


def test_terminal_everything_gives_terminal_levels():
    d = f2.fair_from_category(fc.discrete(1))
    for shape in ds.window_objects():
        lv = d.level(shape)
        assert lv.n_obj == 1 and lv.n_mor == 1


def test_one_dot_shape_has_no_chain(arrow_fair):
    with pytest.raises(ValueError, match="the one-dot shape o has no edges"):
        arrow_fair.chain(ds.parse_ordinal("o"))


def test_category_instance_levels_and_pi1(arrow_fair):
    assert f2.validate_fair2(arrow_fair) == []
    assert f2.validate_fairwg(arrow_fair) == []
    pins = {"o": (2, 2), "o-o": (3, 3), "o=o": (2, 2),
            "o-o-o": (4, 4), "o=o-o": (3, 3)}
    for text, (no, nm) in pins.items():
        lv = arrow_fair.level(ds.parse_ordinal(text))
        assert (lv.n_obj, lv.n_mor) == (no, nm)
    assert f2.pi1_fair(arrow_fair).cat == free_arrow()


def test_category_instance_round_trips_cyclic_monoid():
    d = f2.fair_from_category(cyclic3())
    assert f2.validate_fair2(d) == []
    assert f2.pi1_fair(d).cat == cyclic3()


def test_from_presentation_rejects_non_associative_composition():
    # three endo-arrows at one point; m(a,a)=b, m(a,b)=u, m(b,a)=a breaks
    # associativity at (a,a,a)
    pt = fc.discrete(1)
    arr = fc.discrete(3)
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
             (1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 0}
    with pytest.raises(ValueError,
                       match=r"not associative at triple \(1, 1, 1\)"):
        f2.from_presentation(
            pt, arr, fc.discrete(1),
            fc.FunctorMap(arr, pt, [0, 0, 0], [0, 0, 0]),
            fc.FunctorMap(arr, pt, [0, 0, 0], [0, 0, 0]),
            fc.FunctorMap(fc.discrete(1), pt, [0], [0]),
            fc.FunctorMap(fc.discrete(1), arr, [0], [0]),
            lambda f, g: table[(f, g)], lambda m, n: table[(m, n)],
            lambda w1, w2: 0, lambda m, n: 0)


def test_empty_units_fail_the_anchor_equivalences():
    pt = fc.discrete(1)
    arr = fc.discrete(1)
    empty = fc.discrete(0)
    none = fc.FunctorMap(empty, pt, [], [])
    p = f2.from_presentation(
        pt, arr, empty,
        fc.FunctorMap(arr, pt, [0], [0]), fc.FunctorMap(arr, pt, [0], [0]),
        none, fc.FunctorMap(empty, arr, [], []),
        lambda f, g: 0, lambda m, n: 0,
        lambda w1, w2: 0, lambda m, n: 0)
    problems = f2.validate_fair2(f2.build_fair(p))
    assert any("left unit anchor" in msg for msg in problems)


def test_unit_generator_maps_cover_the_five_anchors():
    names = [name for name, _ in f2.unit_generator_maps()]
    assert names == ["left unit anchor", "right unit anchor",
                     "unit absorbed on the left", "unit absorbed on the right",
                     "composition of unit pairs"]
    for _, fat in f2.unit_generator_maps():
        assert ds.compose_fat(fat, ds.fat_identity(fat.src)) == fat


def test_vertical_window_maps_collapse_to_identities():
    vert = f2.vertical_window_maps()
    assert vert
    for fat in vert:
        coll = ds.collapse(fat)
        assert coll == ds.identity_simplex(coll.src_rank)


def test_evaluation_builds_actions_on_demand(family, monkeypatch):
    # the builders force no action; each validator builds the five unit
    # generators' actions and, with the sweep skipped, nothing else
    built = []
    build = f2.FairDiagram.action

    def counted(self, fat):
        built.append(fat)
        return build(self, fat)

    monkeypatch.setattr(f2.FairDiagram, "action", counted)
    d = f2.pi_star(family[0])
    dd = f2.discretize_fair(d)
    f2.build_fair(d.p)
    f2.fair_from_category(free_arrow())
    assert built == []
    assert f2.validate_fairwg(d) == []
    assert len(built) == 5
    built.clear()
    assert f2.validate_fair2(dd) == []
    assert built == [fat for _, fat in f2.unit_generator_maps()]


def test_iso_classes_asks_is_iso_only_across_classes(monkeypatch):
    # an edge inside a current class cannot change the partition, so where
    # every morphism is an iso each test merges two classes; validate_fairwg
    # on pi* of the family asked 10,348 times when every morphism was tested.
    # The classes are kept on the category, so the family is built afresh.
    asked = []
    is_iso = fc.FinCat.is_iso

    def counted(self, m):
        asked.append(m)
        return is_iso(self, m)

    monkeypatch.setattr(fc.FinCat, "is_iso", counted)
    family, _ = corpus.surjection("family")
    two_blocks, _, _ = fc.disjoint_union([fc.chaotic(2), fc.chaotic(3)])
    for cat in (fc.chaotic(1), fc.chaotic(4), two_blocks, family.x0):
        asked.clear()
        classes, _ = fc.iso_classes(cat)
        assert len(asked) == cat.n_obj - len(classes)
        # asked again, the kept classes come back as new lists
        again, _ = fc.iso_classes(cat)
        assert len(asked) == cat.n_obj - len(classes)
        assert again == classes
        assert again is not classes and all(a is not c for a, c in zip(again, classes))
    asked.clear()
    assert f2.validate_fairwg(f2.pi_star(family)) == []
    assert len(asked) <= 400


# -- the weakly globular family through the fair lens ------------------------


def test_family_passes_fairwg_but_not_fair2(family_fair):
    assert f2.validate_fairwg(family_fair) == []
    assert "points are not discrete" in f2.validate_fair2(family_fair)


def test_family_level_sizes(family_fair):
    pins = {"o": (3, 5), "o-o": (7, 21), "o=o": (3, 5), "o-o-o": (15, 85),
            "o=o-o": (7, 21), "o-o=o": (7, 21), "o=o=o": (3, 5),
            "o-o-o-o": (31, 341)}
    for text, (no, nm) in pins.items():
        lv = family_fair.level(ds.parse_ordinal(text))
        assert (lv.n_obj, lv.n_mor) == (no, nm)


def test_family_levels_reuse_the_double_levels(family, family_fair):
    x, _ = family
    assert family_fair.level(ds.parse_ordinal("o-o")) is x.x1
    assert family_fair.level(ds.parse_ordinal("o-o-o")) == x.pairs.cat
    assert family_fair.level(ds.parse_ordinal("o-o-o-o")) == x.chain(3).cat


def test_family_plain_actions_match_the_nerve(family, family_fair):
    x, _ = family
    shapes = [ds.parse_ordinal(t) for t in ("o", "o-o", "o-o-o", "o-o-o-o")]
    for a in shapes:
        for b in shapes:
            for fat in ds.enumerate_hom(a, b):
                assert family_fair.action(fat) == \
                    x.nerve_action(ds.collapse(fat))


def test_family_pi1_matches_the_double_pi1(family, family_fair):
    # one anchored-arrows core serves both sides: pi* must not move pi1, the
    # hom fibers or the 2-equivalence verdict of the identity
    random_wg = corpus.double("seed 4")
    for x, d in ((family[0], family_fair), (random_wg, f2.pi_star(random_wg))):
        classes = wg.pi1_double(x).cat
        assert f2.pi1_fair(d).cat == classes
        for a in range(classes.n_obj):
            for b in range(classes.n_obj):
                assert f2.hom_fiber_fair(d, a, b) == wg.hom_fiber(x, a, b)
        assert f2.is_2equivalence_fair(f2.identity_fair_map(d)) == \
            wg.is_2equivalence_double(wg.identity_double_map(x))


def test_identity_2equivalence_computes_pi1_once(family, family_fair, monkeypatch):
    # an endomap has one fundamental category: one descent serves both ends
    x = family[0]
    dmap, fmap = wg.identity_double_map(x), f2.identity_fair_map(family_fair)
    expected = [
        an.is_2equivalence(wg._anchored(x), wg._anchored(x), wg.pi1_double(x),
                           wg.pi1_double(x), dmap.f0, dmap.f1),
        an.is_2equivalence(family_fair.p, family_fair.p, f2.pi1_fair(family_fair),
                           f2.pi1_fair(family_fair), fmap.on_points, fmap.on_arrows)]
    descents = []
    pi1 = an.pi1

    def counted(*args):
        descents.append(args)
        return pi1(*args)

    monkeypatch.setattr(an, "pi1", counted)
    for verdict, check in zip(expected, (lambda: wg.is_2equivalence_double(dmap),
                                         lambda: f2.is_2equivalence_fair(fmap))):
        descents.clear()
        assert check() == verdict
        assert len(descents) == 1


@pytest.mark.parametrize("a, b, bad", [(5, 0, 5), (-1, 0, -1), (0, 2, 2)])
def test_hom_fiber_rejects_a_class_out_of_range(family_fair, a, b, bad):
    with pytest.raises(ValueError, match="point class %d is not one of the 2 point classes"
                                         % bad):
        f2.hom_fiber_fair(family_fair, a, b)


def test_family_hom_fibers(family_fair):
    pins = {(0, 0): (4, 16), (0, 1): (2, 4), (1, 0): (0, 0), (1, 1): (1, 1)}
    for (a, b), (no, nm) in pins.items():
        fib, incl = f2.hom_fiber_fair(family_fair, a, b)
        assert (fib.n_obj, fib.n_mor) == (no, nm)
        assert fc.validate_functor(incl) == []


def test_micro_counterexample_fails_axiom_c_and_pi1():
    d = f2.pi_star(wg.micro_counterexample())
    problems = f2.validate_fairwg(d)
    assert len(problems) == 5
    assert problems[0] == ("axiom (c): induced Segal map at o-o-o is not an"
                           " equivalence (fully_faithful=True,"
                           " essentially_surjective=False)")
    with pytest.raises(ValueError, match=r"no composable representatives"):
        f2.pi1_fair(d)


def test_micro_axiom_c_lines_read_the_same_on_the_double_side():
    # both models word a failed Segal map through anchored.not_equivalence
    assert wg.validate_catwg2(wg.micro_counterexample()) == [
        "axiom (c): induced level-%d Segal map is not an equivalence"
        " (fully_faithful=True, essentially_surjective=False)" % k for k in (2, 3)]


def test_non_hd_points_fail_axiom_a():
    # everything the free arrow, identity structure maps, first-component
    # compositions: a lawful presentation whose points are not hd
    base = free_arrow()
    ident = fc.identity_functor(base)
    p = f2.from_presentation(
        base, base, base, ident, ident, ident, ident,
        lambda f, g: f, lambda m, n: m, lambda w1, w2: w1, lambda m, n: m)
    problems = f2.validate_fairwg(f2.build_fair(p))
    assert problems == ["axiom (a): points are not homotopically discrete"
                        " (witness morphism 1)"]


# -- rebasing onto the point classes -----------------------------------------


def test_discretize_family_passes_fair2(family_discrete):
    assert f2.validate_fair2(family_discrete) == []
    assert family_discrete.p.points == fc.discrete(2)
    lv = family_discrete.level(ds.parse_ordinal("o-o-o"))
    assert (lv.n_obj, lv.n_mor) == (27, 325)


def test_discretize_preserves_pi1_and_hom_fibers(family_fair,
                                                 family_discrete):
    assert f2.pi1_fair(family_discrete).cat == f2.pi1_fair(family_fair).cat
    for a in range(2):
        for b in range(2):
            assert f2.hom_fiber_fair(family_discrete, a, b) == \
                f2.hom_fiber_fair(family_fair, a, b)


def test_discretize_unit_composition_is_first_component(family_discrete,
                                                        tf2_fair):
    p = family_discrete.p
    for i, t in enumerate(p.pair_units.obj_label):
        assert p.comp_units.obj(i) == t[0]
    q = f2.discretize_fair(tf2_fair).p
    assert q.pair_units.cat.n_obj == 4
    for i, t in enumerate(q.pair_units.obj_label):
        assert q.comp_units.obj(i) == t[0]


def test_discretize_is_identity_on_discrete_points(arrow_fair):
    d2 = f2.discretize_fair(arrow_fair)
    p, q = arrow_fair.p, d2.p
    assert (p.points, p.src, p.tgt, p.value, p.as_arrow) == \
        (q.points, q.src, q.tgt, q.value, q.as_arrow)
    assert p.comp_arrows == q.comp_arrows
    assert p.comp_units == q.comp_units


def test_discretize_tf2(tf2_fair):
    assert f2.validate_fairwg(tf2_fair) == []
    assert f2.validate_fair2(f2.discretize_fair(tf2_fair)) == []


def test_rebasing_obstruction_over_a_chaotic_base():
    # fibers {0,1} and {2} over the two-object chaotic base: the instance is
    # weakly globular fair, yet no choice of pair section can make the
    # rebased composition associative and unit-closed, so the honest outcome
    # is a raise (exhaustive search result recorded outside the package)
    chaotic2 = fc.thin_from_preorder(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    x, _ = wg.generate_from_surjection(chaotic2, [0, 0, 1])
    d = f2.pi_star(x)
    assert f2.validate_fairwg(d) == []
    with pytest.raises(ValueError,
                       match=r"not associative at triple \(0, 5, 6\)"):
        f2.discretize_fair(d)


def test_unknown_strategy_is_rejected(family_fair, monkeypatch):
    # the retired generic "retraction" strategy is refused like any other
    # name, before a section or a chain is built
    calls = []
    for module, name in ((f2, "pair_retractions"), (fc, "chain_fiber_product")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    for strategy in ("bogus", "retraction"):
        message = "unknown strategy %r" % (strategy,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            f2.discretize_fair(family_fair, strategy=strategy)
    assert calls == []


def test_cleavage_section_law(family_fair):
    retr = f2.pair_retractions(family_fair)
    for shape, nu in (("o-o-o", retr.nu_arrows), ("o=o=o", retr.nu_units)):
        muhat = f2.class_chain(family_fair, ds.parse_ordinal(shape))[1]
        assert fc.compose_functors(nu, muhat) == fc.identity_functor(muhat.source)


# -- maps of fair structures -------------------------------------------------


def test_collapse_map_is_a_levelwise_equivalence(collapse):
    assert f2.validate_fair_map(collapse) == []
    for text in ["o", "o-o", "o=o", "o-o-o", "o=o-o", "o-o-o-o"]:
        lm = f2.level_map_fair(collapse, ds.parse_ordinal(text))
        assert fc.equivalence_flags(lm)["is_equivalence"]


def test_collapse_map_is_a_2equivalence(collapse):
    verdict = f2.is_2equivalence_fair(collapse)
    assert verdict["is_2equivalence"]
    assert fc.equivalence_flags(f2.pi1_fair_map(collapse))["is_equivalence"]


@pytest.fixture(scope="module")
def moved_arrow(family, family_fair):
    return f2.pi_star_map(corpus.moved_arrow_map(family[0]), family_fair, family_fair)


def test_2equivalence_fair_rejects_an_arrow_moved_out_of_its_hom_fiber(moved_arrow):
    with pytest.raises(ValueError, match=r"arrow 1 over classes \(0, 0\) is sent to 2,"
                                         r" outside hom fiber \(0, 0\)"):
        f2.is_2equivalence_fair(moved_arrow)


def test_validate_fair_map_lists_failed_squares_without_raising(moved_arrow):
    problems = f2.validate_fair_map(moved_arrow)
    assert problems[0].startswith("arrow component is not a functor")
    assert problems[1:] == ["target square does not commute"]


def test_short_point_component_is_rejected_before_indexing(arrow_fair):
    # on_points covers one of the two points; validate_fair_map already refuses it
    p = arrow_fair.p
    fmap = f2.FairMap(arrow_fair, arrow_fair, fc.FunctorMap(p.points, p.points, [0], [0]),
                      fc.identity_functor(p.arrows), fc.identity_functor(p.units))
    for check in (f2.is_2equivalence_fair, f2.pi1_fair_map, f2.validate_fair_map):
        with pytest.raises(ValueError, match="functor map lengths disagree with the source"):
            check(fmap)


@pytest.mark.parametrize("component", ["points", "arrows"])
def test_short_component_is_named_with_both_lengths(arrow_fair, component):
    p = arrow_fair.p
    maps = {"points": fc.identity_functor(p.points), "arrows": fc.identity_functor(p.arrows)}
    cat = getattr(p, component)
    maps[component] = fc.FunctorMap(cat, cat, range(cat.n_obj), [0])
    fmap = f2.FairMap(arrow_fair, arrow_fair, maps["points"], maps["arrows"],
                      fc.identity_functor(p.units))
    with pytest.raises(ValueError) as err:
        f2.is_2equivalence_fair(fmap)
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's morphism map"
        " has length 1 but the source has %d morphisms" % (component, cat.n_mor))


@pytest.mark.parametrize("component, tag", [("points", "point"), ("arrows", "arrow"),
                                            ("units", "unit")])
def test_validate_fair_map_names_a_short_component(nerve_fair, component, tag):
    p = nerve_fair.p
    maps = {name: fc.identity_functor(getattr(p, name)) for name in ("points", "arrows", "units")}
    cat = getattr(p, component)
    maps[component] = fc.FunctorMap(cat, cat, [0], range(cat.n_mor))
    with pytest.raises(ValueError) as err:
        f2.validate_fair_map(f2.FairMap(nerve_fair, nerve_fair, maps["points"],
                                        maps["arrows"], maps["units"]))
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's object map"
        " has length 1 but the source has %d objects" % (tag, cat.n_obj))


SHORT_COMPONENT_READERS = {
    "compose after the identity":
        lambda fmap: f2.compose_fair_maps(fmap, f2.identity_fair_map(fmap.source)),
    "compose before the identity":
        lambda fmap: f2.compose_fair_maps(f2.identity_fair_map(fmap.source), fmap),
    "compose with itself": lambda fmap: f2.compose_fair_maps(fmap, fmap),
}
SHORT_LEVEL_READS = [("o", "points"), ("o-o", "arrows"), ("o=o", "units"),
                     ("o=o-o", "arrows"), ("o-o=o", "units")]


@pytest.mark.parametrize("reader, component", [
    *[("level_map_fair " + text, component) for text, component in SHORT_LEVEL_READS],
    *[(reader, component) for reader in sorted(SHORT_COMPONENT_READERS)
      for component in ("points", "arrows", "units")]])
def test_short_component_is_named_by_the_reader_that_takes_it(nerve_fair, reader, component):
    # each reader checks the shape of the components it reads, so none of
    # them indexes past the end of a short map or composes one into another
    p = nerve_fair.p
    maps = {name: fc.identity_functor(getattr(p, name)) for name in ("points", "arrows", "units")}
    cat = getattr(p, component)
    maps[component] = fc.FunctorMap(cat, cat, [0], [0])
    fmap = f2.FairMap(nerve_fair, nerve_fair, maps["points"], maps["arrows"], maps["units"])
    read = SHORT_COMPONENT_READERS.get(reader) or (
        lambda fmap: f2.level_map_fair(fmap, ds.parse_ordinal(reader.split()[-1])))
    with pytest.raises(ValueError) as err:
        read(fmap)
    assert str(err.value) == (
        "functor map lengths disagree with the source: the %s component's object map"
        " has length 1 but the source has %d objects" % (component, cat.n_obj))


def test_identity_and_composition_of_fair_maps(family_fair, collapse):
    ident = f2.identity_fair_map(family_fair)
    assert f2.validate_fair_map(ident) == []
    assert f2.is_2equivalence_fair(ident)["is_2equivalence"]
    comp = f2.compose_fair_maps(collapse, ident)
    assert f2.validate_fair_map(comp) == []
    assert comp.on_arrows == collapse.on_arrows
    with pytest.raises(ValueError, match="not composable"):
        f2.compose_fair_maps(ident, collapse)


WRONG_LEVEL_CHECKS = {
    "is_2equivalence_fair": f2.is_2equivalence_fair,
    "pi1_fair_map": f2.pi1_fair_map,
    "validate_fair_map": f2.validate_fair_map,
    "level_map_fair": lambda fmap: f2.level_map_fair(fmap, ds.parse_ordinal("o-o-o")),
}


@pytest.mark.parametrize("check", sorted(WRONG_LEVEL_CHECKS))
def test_a_component_between_the_wrong_levels_is_named(family_fair, nerve_fair, collapse,
                                                       check):
    # the components of pi*(nerve)'s identity, put on a map from pi*(family)
    p = nerve_fair.p
    ident = [fc.identity_functor(c) for c in (p.points, p.arrows, p.units)]
    with pytest.raises(ValueError, match="^the point component does not run between"
                                         " the ends' points$"):
        WRONG_LEVEL_CHECKS[check](f2.FairMap(family_fair, nerve_fair, *ident))
    with pytest.raises(ValueError, match="^the arrow component does not run between"
                                         " the ends' arrows$"):
        WRONG_LEVEL_CHECKS[check](f2.FairMap(family_fair, nerve_fair, collapse.on_points,
                                             *ident[1:]))


# -- pi* on maps ---------------------------------------------------------------


def test_pi_star_map_sends_identities_to_identities(family, family_fair):
    image = f2.pi_star_map(wg.identity_double_map(family[0]), family_fair, family_fair)
    # FairMap compares its ends and its three components
    assert image == f2.identity_fair_map(family_fair)


def test_pi_star_map_preserves_composition(family, nerve, family_fair, nerve_fair, collapse):
    x = family[0]
    ident, cmap = wg.identity_double_map(x), corpus.collapse_map(family, nerve)
    both = wg.DoubleMap(x, nerve[0], fc.compose_functors(cmap.f0, ident.f0),
                        fc.compose_functors(cmap.f1, ident.f1))
    image = f2.pi_star_map(both, family_fair, nerve_fair)
    assert image == f2.compose_fair_maps(collapse, f2.pi_star_map(ident, family_fair,
                                                                  family_fair))


def test_pi_star_map_needs_pi_star_of_both_ends(family, nerve, family_fair, nerve_fair,
                                                family_discrete, arrow_fair):
    # arrow_fair is the free arrow built directly, family_discrete keeps the
    # family's arrows over other points
    cmap = corpus.collapse_map(family, nerve)
    for source, target in ((family_fair, arrow_fair), (nerve_fair, nerve_fair),
                           (family_discrete, nerve_fair)):
        with pytest.raises(ValueError, match=r"not pi\* of the map's source and target"):
            f2.pi_star_map(cmap, source, target)


# -- properties over the random corpus ---------------------------------------


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_wg_instances_discretize_lawfully(seed):
    x, _ = wg.generate_random_wg(seed, max_base_objects=3, max_fiber=2)
    d = f2.pi_star(x)
    assert f2.validate_fairwg(d) == []
    dd = f2.discretize_fair(d)
    assert f2.validate_fair2(dd) == []
    assert f2.pi1_fair(dd).cat == f2.pi1_fair(d).cat
