"""validate_pseudo against an exhaustive reference, and the generators it uses."""

from __future__ import annotations

import random
import re
import types

import pytest

from wgfair import deltasite as ds
from wgfair import fincat as fc
from wgfair import pseudo as ps
from wgfair import wgdouble as wg

import corpus
from test_fincat_reference import reference_validate_functor

# the one-object category of Z/2: morphism 0 is the identity, 1 the generator
Z2 = fc.FinCat(1, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
# the monoid {1, z} with z z = z: z is central but has no inverse
IDEMPOTENT = fc.FinCat(1, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
# the monoid {1, a, b} with x y = x for x, y in {a, b}: a is idempotent, not central
LEFT_ZERO = fc.FinCat(1, [0] * 3, [0] * 3, [0],
                      {(g, f): g or f for g in range(3) for f in range(3)})


def twisted_constant(site):
    """Constant Z/2 diagram, identity actions, the generator on some cells.

    Z/2 is abelian, so every such cell is natural and invertible and only the
    cocycle law can fail.
    """
    ident = fc.identity_functor(Z2)
    maps = site.maps

    def cell(g, f):
        if maps[f].values[0] == 0 and maps[g].tgt_rank == 2:
            return [1]
        return None

    return ps.PseudoDiagram(site, lambda a: Z2, lambda f: ident, cell)


def twisted_swap(site):
    """Constant diagram on two copies of Z/3, with actions that move objects.

    A map whose ranks differ by an odd number swaps the copies and negates,
    which is a strict action; each cell component is a power of the
    generator that depends on the pair and the object.  Unlike the Z/2
    diagram, the cocycle law here tells the four cells apart and reads the
    object maps of the actions.
    """
    z3 = fc.FinCat(1, [0] * 3, [0] * 3, [0], {(i, j): (i + j) % 3
                                              for i in range(3) for j in range(3)})
    level = fc.disjoint_union([z3, z3])[0]
    ident = fc.identity_functor(level)
    # morphism 3c + k is the k-th power of the generator on copy c
    swap = fc.FunctorMap(level, level, [1, 0], [(1 - m // 3) * 3 + (-m) % 3 for m in range(6)])
    maps = site.maps

    def action(f):
        return swap if (maps[f].tgt_rank - maps[f].src_rank) % 2 else ident

    def cell(g, f):
        composite = fc.compose_functors(action(f), action(g))
        power = sum(maps[g].values) + 2 * sum(maps[f].values)
        return [3 * x + (power + y) % 3 for y, x in enumerate(composite.obj_map)]

    return ps.PseudoDiagram(site, lambda a: level, action, cell)


DIAGRAMS = {"z2": twisted_constant, "swap": twisted_swap}


# id of an action -> (the action, its reference_validate_functor verdict)
FUNCTOR_VERDICTS = {}


def reference_pairs(diagram, max_problems):
    """Every check but coherence, by exhaustive enumeration of each item.

    ``fincat.validate_nat`` is a pure function of the cell's levels, the two
    functors' maps and the components, so its verdict is kept per distinct
    cell for the call: every square of every distinct cell is still checked.
    Likewise each distinct action object is walked in full by
    ``reference_validate_functor`` once for the session (``FUNCTOR_VERDICTS``):
    a mutant diagram that shares its parent's actions reuses their verdicts.
    """
    site = diagram.site
    cat, maps = site.cat, site.maps
    problems = []
    verdicts = {}

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    for a in site.objects:
        if diagram.action(cat.identity[a]) != fc.identity_functor(diagram.level(a)):
            if note("identity of %r does not act as the identity functor" % (a,)):
                return problems
    broken = set()
    for a in site.objects:
        for b in site.objects:
            for f in cat.hom(a, b):
                act = diagram.action(f)
                if act.source != diagram.level(b) or act.target != diagram.level(a):
                    broken.add(f)
                    if note("action of %r has wrong endpoints" % (maps[f],)):
                        return problems
                    continue
                if id(act) not in FUNCTOR_VERDICTS:
                    # the action is kept with its verdict, so that its id is not reused
                    FUNCTOR_VERDICTS[id(act)] = (act, reference_validate_functor(act))
                bad = FUNCTOR_VERDICTS[id(act)][1]
                if bad and note("action of %r is not a functor: %s" % (maps[f], bad[0])):
                    return problems
    for g, f in corpus.composable_pairs(site):
        if broken & {f, g, cat.compose(g, f)}:
            continue
        cell = diagram.cell(g, f)
        composite = fc.compose_functors(diagram.action(f), diagram.action(g))
        if cell.source != composite or cell.target != diagram.action(cat.compose(g, f)):
            if note("cell at (%r, %r) has wrong endpoints" % (maps[g], maps[f])):
                return problems
            continue
        s, t = cell.source, cell.target
        key = (id(s.source), id(s.target), id(t.source), id(t.target),
               s.obj_map, s.mor_map, t.obj_map, t.mor_map, cell.components)
        if key not in verdicts:
            # the cell is kept with its verdict, so that no id in a key is reused
            verdicts[key] = (cell, fc.validate_nat(cell))
        bad = verdicts[key][1]
        if bad:
            if note("cell at (%r, %r) is not natural: %s" % (maps[g], maps[f], bad[0])):
                return problems
            continue
        if not all(cell.source.target.is_iso(c) for c in cell.components):
            if note("cell at (%r, %r) is not invertible" % (maps[g], maps[f])):
                return problems
        if (f in cat.identity or g in cat.identity) and any(
                c != composite.target.identity[composite.obj_map[x]]
                for x, c in enumerate(cell.components)):
            if note("cell with an identity leg at (%r, %r) is not the identity"
                    % (maps[g], maps[f])):
                return problems
    return problems


def reference_pseudo(diagram, max_problems=20):
    """validate_pseudo by exhaustive enumeration: every pair, square and triple."""
    problems = reference_pairs(diagram, max_problems)
    if len(problems) >= max(max_problems, 1):
        return problems
    return problems + reference_coherence(diagram, max_problems - len(problems))


def reference_coherence(diagram, max_problems):
    """Coherence triple by triple and object by object, in (f, g, h) order.

    The loop reads the site's composition table, keyed by map numbers;
    triples reading an action with wrong endpoints, or whose pastings do
    not compose, are skipped.
    """
    site = diagram.site
    problems = []

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    cat, maps = site.cat, site.maps
    out_of = {a: [i for i in range(len(maps)) if cat.src[i] == a] for a in site.objects}
    acts = [diagram.action(f) for f in range(len(maps))]
    broken = {i for i in range(len(maps))
              if acts[i].source != diagram.level(cat.tgt[i])
              or acts[i].target != diagram.level(cat.src[i])}
    after, cells = cat.comp, {}
    for key, gf in after.items():
        if not broken & {key[0], key[1], gf}:
            cells[key] = diagram.components(*key)
    for fi, f in enumerate(maps):
        comp = diagram.level(cat.src[fi]).comp
        af = acts[fi].mor_map
        for gi in out_of[cat.tgt[fi]]:
            gf = after[(gi, fi)]
            for hi in out_of[cat.tgt[gi]]:
                hg = after[(hi, gi)]
                if broken and broken & {fi, gi, hi, gf, hg, after[(hi, gf)]}:
                    continue
                ah = acts[hi].obj_map
                outer, inner = cells[(hi, gf)], cells[(gi, fi)]
                outer2, inner2 = cells[(hg, fi)], cells[(hi, gi)]
                ones = [comp.get((outer[y], inner[ah[y]])) for y in range(len(ah))]
                twos = [comp.get((outer2[y], af[inner2[y]])) for y in range(len(ah))]
                if None in ones or None in twos:
                    continue
                for y, (one, two) in enumerate(zip(ones, twos)):
                    if one != two and note("coherence fails at (%r, %r, %r) on object %d"
                                           % (maps[hi], maps[gi], f, y)):
                        return problems
    return problems


@pytest.mark.parametrize("name, failures", [("z2", 1260), ("swap", 5054)])
def test_twisted_diagrams_fail_only_coherence(name, failures):
    diagram = DIAGRAMS[name](ps.OrdinalSite(2))
    assert ps.validate_pseudo(diagram, coherence=False) == []
    assert len(ps.validate_pseudo(diagram, max_problems=10**6)) == failures


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
@pytest.mark.parametrize("max_problems", [1, 3, 20, 10**6])
def test_coherence_matches_the_per_triple_reference(name, max_problems):
    diagram = DIAGRAMS[name](ps.OrdinalSite(2))
    expected = reference_coherence(diagram, max_problems)
    assert expected
    assert ps.validate_pseudo(diagram, max_problems=max_problems) == expected


def test_max_problems_below_one_stops_at_the_first_coherence_failure():
    # the per-triple loop returned [] here: it stopped after the first triple
    # even when that triple was coherent
    diagram = twisted_constant(ps.OrdinalSite(2))
    assert ps.validate_pseudo(diagram, max_problems=0) == reference_coherence(diagram, 1)


def test_is_identity_matches_the_identity_simplex():
    site = ps.OrdinalSite(3)
    cat = site.cat
    for a in site.objects:
        for b in site.objects:
            for f in cat.hom(a, b):
                assert (f == cat.identity[a]) == (site.maps[f] == ds.identity_simplex(a))


# -- generators, and the checks made on them ---------------------------------


@pytest.fixture(scope="module")
def diagrams():
    """Tr2 of the nerve, the [0,0,1] family and tf2, under both strategies."""
    sources = {name: corpus.double(name) for name in ("nerve", "family", "tf2")}
    return {(name, s): wg.tr2_strong_segalic(x, strategy=s).diagram
            for name, x in sources.items() for s in ("cleavage", "retraction")}


def closure(gens, units, compose, composable):
    """Everything reached from units and gens by composing with gens on either side."""
    found = set(units) | set(gens)
    todo = list(found)
    while todo:
        x = todo.pop()
        for s in gens:
            for y in ([compose(s, x)] if composable(s, x) else []) + (
                    [compose(x, s)] if composable(x, s) else []):
                if y not in found:
                    found.add(y)
                    todo.append(y)
    return found


def test_site_generators_generate_every_map():
    site = ps.OrdinalSite(3)
    cat = site.cat
    gens = site.generators()
    assert len(gens) == len(set(gens)) == 15
    assert not any(s in cat.identity for s in gens)
    maps = site.maps
    assert len(maps) == 121
    assert maps == sorted(maps, key=lambda f: (f.src_rank, f.tgt_rank, f.values))
    assert [site.maps[s] for s in gens] == (
        [ds.coface(i, n) for n in (1, 2, 3) for i in range(n + 1)]
        + [ds.codegeneracy(i, n) for n in (0, 1, 2) for i in range(n + 1)])
    reached = closure(gens, cat.identity, cat.compose, lambda g, f: cat.src[g] == cat.tgt[f])
    assert reached == set(range(len(maps)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_site_is_a_numbered_category_of_its_maps(k):
    site = ps.OrdinalSite(k)
    cat = site.cat
    assert fc.validate_category(cat) == []
    assert cat.n_obj == k + 1 and len(site.maps) == cat.n_mor
    assert site.index == {f: i for i, f in enumerate(site.maps)}
    assert [site.maps[i] for i in cat.identity] == [ds.identity_simplex(a) for a in range(k + 1)]
    assert [(f.src_rank, f.tgt_rank) for f in site.maps] == list(zip(cat.src, cat.tgt))
    assert list(cat.comp) == list(corpus.composable_pairs(site))
    if k == 3:
        assert (cat.n_mor, len(cat.comp)) == (121, 5374)
    for (g, f), gf in cat.comp.items():
        assert gf == site.index[ds.compose_simplex(site.maps[g], site.maps[f])]
    gens = site.generators()
    reached = closure(gens, cat.identity, cat.compose, lambda g, f: cat.src[g] == cat.tgt[f])
    assert reached == set(range(cat.n_mor))
    # a pair that does not compose is refused by the category
    f = site.index[ds.coface(0, 1)]
    with pytest.raises(ValueError, match="^morphisms %d after %d are not composable$" % (f, f)):
        cat.compose(f, f)


def test_tr2_and_its_reports_leave_the_site_table_unforced():
    # the actions a report reads are found through the site's index, so no
    # composite of the site is computed before validation asks for them
    res = wg.tr2_strong_segalic(corpus.double("nerve"))
    assert wg.tr2_face_report(res) == [] and wg.tr2_segal_report(res) == []
    cat = res.diagram.site.cat
    assert cat._rule is not None and cat._comp == {}
    assert ps.validate_pseudo(res.diagram) == []
    assert cat._rule is None and len(cat._comp) == 5374


@pytest.mark.parametrize("f", [-1, 121, ds.coface(0, 1)], ids=["-1", "121", "SimplexMap"])
def test_only_map_numbers_are_accepted(f):
    # a negative number would wrap silently in the action list, and a
    # SimplexMap label must get a ValueError, not a TypeError
    d = twisted_swap(ps.OrdinalSite(3))
    g = d.site.index[ds.codegeneracy(0, 0)]
    named = "^%s$" % re.escape("site map %r is not one of the 121 map numbers" % (f,))
    for read in (lambda: d.action(f), lambda: d.components(g, f), lambda: d.components(f, g),
                 lambda: d.cell(g, f), lambda: d.cell(f, g)):
        with pytest.raises(ValueError, match=named):
            read()


@pytest.mark.parametrize("make", [lambda: wg.tr2_strong_segalic(corpus.double("nerve")).diagram,
                                  lambda: twisted_swap(ps.OrdinalSite(3))],
                         ids=["tr2 nerve", "swap"])
def test_components_and_cell_refuse_a_pair_that_does_not_compose(make):
    # [0] -> [1] after [1] -> [2]: the swap diagram's cell_fn would answer it
    d = make()
    g, f = ds.coface(0, 1), ds.coface(0, 2)
    named = "^%s$" % re.escape("site maps %r after %r are not composable" % (g, f))
    for read in (d.components, d.cell):
        with pytest.raises(ValueError, match=named):
            read(d.site.index[g], d.site.index[f])


def generated(cat, gens):
    return closure(gens, cat.identity, cat.compose, lambda g, f: cat.src[g] == cat.tgt[f])


@pytest.mark.parametrize("name", ["nerve", "family", "tf2"])
def test_level_generators_generate_every_morphism(diagrams, name):
    d = diagrams[(name, "cleavage")]
    for a in d.site.objects:
        cat = d.level(a)
        assert generated(cat, fc.generators(cat)) == set(range(cat.n_mor))


@pytest.mark.parametrize("cat", [fc.chaotic(3), Z2], ids=["chaotic3", "z2"])
def test_generators_generate_and_each_is_needed_by_the_earlier_ones(cat):
    gens = fc.generators(cat)
    assert generated(cat, gens) == set(range(cat.n_mor))
    for i, m in enumerate(gens):
        assert m not in generated(cat, gens[:i])


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
def test_nerve_matches_the_exhaustive_reference(diagrams, strategy):
    d = diagrams[("nerve", strategy)]
    assert ps.validate_pseudo(d) == reference_pseudo(d) == []


def test_validation_computes_the_generators_of_each_level_once(diagrams, monkeypatch):
    # one call used to compute them once per action and once per level:
    # 125 times on the family, for 4 levels
    d = diagrams[("family", "cleavage")]
    levels = [d.level(a) for a in d.site.objects]
    before = [fc.generators(cat) for cat in levels]
    for cat in levels:
        monkeypatch.setattr(cat, "_gens", None)
    computed, generators = [], fc.generators

    def spy(cat):
        if cat._gens is None:
            computed.append(cat)
        return generators(cat)

    monkeypatch.setattr(fc, "generators", spy)
    assert ps.validate_pseudo(d) == []
    assert sorted(map(id, computed)) == sorted(map(id, levels))
    assert [generators(cat) for cat in levels] == before
    # what is kept on the category is what is handed out
    monkeypatch.setattr(levels[0], "_gens", ("kept",))
    assert generators(levels[0]) == ["kept"]


def test_tr2_and_its_validation_compose_each_pair_of_actions_once(monkeypatch):
    # validation reads each cell's components, so two actions of the diagram
    # are composed only to check the pairs with an identity leg, once each:
    # 238 of the 5,374 composable pairs.  The other 245 calls build the
    # nerve, its Tr2 and the actions Tr2 makes on first request (5,624
    # while validation built every cell, 10,998 before cells came as
    # components, 484 while the cleavage search discretized level zero
    # again)
    calls, compose = [], fc.compose_functors

    def spy(g, f):
        calls.append((g, f))
        return compose(g, f)

    monkeypatch.setattr(fc, "compose_functors", spy)
    d = wg.tr2_strong_segalic(corpus.double("nerve")).diagram
    nat, built = fc.NatTransf, []
    monkeypatch.setattr(fc, "NatTransf", lambda *args: built.append(args) or nat(*args))
    assert ps.validate_pseudo(d, coherence=True) == []
    site = d.site
    acts = {id(d.action(f)) for f in range(len(site.maps))}
    pairs = [(id(g), id(f)) for g, f in calls if id(g) in acts and id(f) in acts]
    legs = {(id(d.action(f)), id(d.action(g))) for g, f in corpus.composable_pairs(site)
            if f in site.cat.identity or g in site.cat.identity}
    assert len(pairs) == len(set(pairs)) == len(legs) == 238
    assert set(pairs) == legs
    assert built == []
    assert len(calls) == 483


def test_a_lawful_validation_asks_for_each_cell_without_an_identity_leg_once(monkeypatch):
    # components are not cached, so this also pins that the pair pass reads
    # each pair once and the coherence walk reads what the pass kept
    d = wg.tr2_strong_segalic(corpus.double("nerve")).diagram
    asked, cell_fn = [], d._cell_fn
    monkeypatch.setattr(d, "_cell_fn", lambda g, f: asked.append((g, f)) or cell_fn(g, f))
    assert ps.validate_pseudo(d) == []
    assert len(asked) == len(set(asked)) == 5136
    assert set(asked) == set(legless_pairs(d.site))


def cells_at(site, level, components):
    """Identity actions on a one-object level; the cell at each pair in components has them.

    Every other cell is the identity.
    """
    ident = fc.identity_functor(level)

    return ps.PseudoDiagram(site, lambda a: level, lambda f: ident,
                            lambda g, f: components.get((g, f)))


def legless_pairs(site):
    return [(g, f) for g, f in corpus.composable_pairs(site)
            if f not in site.cat.identity and g not in site.cat.identity]


def twisted_off_generators(site, seed):
    """Constant Z/2 diagram with the generator on random pairs (g, f), f no generator.

    Neither leg is an identity, so every check but coherence passes, and the
    generator walk only ever sees identity cells at its first map.
    """
    rng = random.Random(seed)
    gens = set(site.generators())
    return cells_at(site, Z2, {(g, f): [1] for g, f in legless_pairs(site)
                               if f not in gens and rng.random() < 0.5})


@pytest.mark.parametrize("seed", range(6))
def test_twists_off_the_site_generators_are_found(seed):
    d = twisted_off_generators(ps.OrdinalSite(2), seed)
    assert ps.validate_pseudo(d, coherence=False) == []
    expected = reference_pseudo(d, 10**6)
    assert expected
    for max_problems in (1, 20, 10**6):
        assert ps.validate_pseudo(d, max_problems=max_problems) == expected[:max_problems]


def retarget(diagram, f_star, act):
    """diagram with act as the action of f_star; every cell keeps its components."""
    def action(f):
        return act if f == f_star else diagram.action(f)

    return ps.PseudoDiagram(diagram.site, diagram.level, action, diagram.components)


def recell(diagram, pair, components):
    """diagram with the cell at pair given other components."""
    def cell(g, f):
        return components if (g, f) == pair else diagram.components(g, f)

    return ps.PseudoDiagram(diagram.site, diagram.level, diagram.action, cell)


def assert_matches_the_reference(d):
    expected = reference_pseudo(d, 10**6)
    assert expected
    for max_problems in (1, 20, 10**6):
        assert ps.validate_pseudo(d, max_problems=max_problems) == expected[:max_problems]
    return expected


@pytest.mark.parametrize("level, failure", [(IDEMPOTENT, "is not invertible"),
                                            (LEFT_ZERO, "is not natural")],
                         ids=["idempotent", "left zero"])
def test_coherent_cells_failing_at_every_pair_are_found(level, failure):
    # the same idempotent component on every cell without an identity leg:
    # both pastings of a triple are that component, so only the checks of
    # the cells themselves, made at the generator pairs, can see it
    d = cells_at(ps.OrdinalSite(2), level, dict.fromkeys(legless_pairs(ps.OrdinalSite(2)), [1]))
    expected = assert_matches_the_reference(d)
    assert all(failure in p for p in expected)


def test_a_cell_that_is_not_invertible_off_the_generators_is_found():
    # the first map s0 d1 s0 of [1] is neither a generator nor an identity
    g, f = ds.codegeneracy(0, 0), ds.SimplexMap(1, 1, (0, 0))
    site = ps.OrdinalSite(1)
    d = cells_at(site, IDEMPOTENT, {(site.index[g], site.index[f]): [1]})
    expected = assert_matches_the_reference(d)
    assert expected[0] == "cell at (%r, %r) is not invertible" % (g, f)


@pytest.mark.parametrize("v", [0, 1])
def test_a_twist_seen_only_from_one_coface_is_found(v):
    # Z/2 on (s0, d) and (s0, d s0), for d the coface [0] -> [1] with value
    # v: the cocycle law holds at every triple whose first map is another
    # generator, so of the generator walk only the triples from d see it
    site = ps.OrdinalSite(1)
    d, s0 = site.index[ds.SimplexMap(0, 1, (v,))], site.index[ds.codegeneracy(0, 0)]
    expected = assert_matches_the_reference(
        cells_at(site, Z2, {(s0, d): [1], (s0, site.cat.compose(d, s0)): [1]}))
    others = [site.maps[s] for s in site.generators() if s != d]
    assert not any(p.endswith(", %r) on object 0" % (s,)) for p in expected for s in others)


def test_a_cell_seen_only_from_the_codegeneracy_is_found():
    # level 0 is a point and level 1 the monoid {1, z}; every action is
    # constant, so whiskering by the action of a coface forgets z.  Then the
    # cell z at (d, s0) is seen only by its own check and by the triples
    # whose first map is s0; cofaces as first maps see nothing
    site = ps.OrdinalSite(1)
    levels = {0: fc.discrete(1), 1: IDEMPOTENT}
    cat = site.cat

    def action(f):
        return fc.FunctorMap(levels[cat.tgt[f]], levels[cat.src[f]], [0],
                             [0] * levels[cat.tgt[f]].n_mor)

    pair = (ds.coface(1, 1), ds.codegeneracy(0, 0))
    numbers = tuple(map(site.index.get, pair))

    expected = assert_matches_the_reference(ps.PseudoDiagram(
        site, levels.__getitem__, action, lambda g, f: [1] if (g, f) == numbers else None))
    assert expected[0] == "cell at (%r, %r) is not invertible" % pair


def test_tf2_cell_with_a_stray_component_off_the_generators_is_found(diagrams):
    # every level of tf2 is thin, so there a cell with the right endpoints
    # is natural and invertible; this one has a component that leaves the
    # right object for the wrong one, at a first map that is neither a
    # generator nor an identity
    d = diagrams[("tf2", "cleavage")]
    g, f = ds.codegeneracy(0, 0), ds.SimplexMap(1, 1, (0, 0))
    pair = (d.site.index[g], d.site.index[f])
    comps = list(d.cell(*pair).components)
    level = d.level(1)
    comps[0] = next(m for m in range(level.n_mor) if level.src[m] == level.src[comps[0]]
                    and level.tgt[m] != level.tgt[comps[0]])
    expected = assert_matches_the_reference(recell(d, pair, comps))
    assert expected[0] == ("cell at (%r, %r) is not natural: component at object 0 has"
                           " wrong endpoints" % (g, f))


@pytest.fixture(scope="module")
def tf2_to_rank_2(diagrams):
    """Tr2 of tf2 on the ranks up to 2, where the exhaustive reference is quick."""
    d = diagrams[("tf2", "cleavage")]
    site = ps.OrdinalSite(2)
    # the number in d's site of each map of the smaller site
    number = [d.site.index[f] for f in site.maps]
    return ps.PseudoDiagram(site, d.level, lambda f: d.action(number[f]),
                            lambda g, f: d.components(number[g], number[f]))


@pytest.mark.parametrize("end", ["target", "source"])
@pytest.mark.parametrize("pair", [(ds.SimplexMap(1, 0, (0, 0)), ds.SimplexMap(1, 1, (1, 1))),
                                  (ds.SimplexMap(2, 0, (0, 0, 0)), ds.SimplexMap(2, 2, (0, 1, 1)))],
                         ids=["rank 1", "rank 2"])
def test_a_component_with_one_wrong_end_off_the_generators_is_found(tf2_to_rank_2, pair, end):
    # level 0 of tf2 is a point, so no naturality square reads the one
    # component of a cell at (g, f) with g into [0]: of the generator
    # checks only the coherence walk sees one end of it moved
    d = tf2_to_rank_2
    g, f = numbers = tuple(map(d.site.index.get, pair))
    assert f not in d.site.generators() and f not in d.site.cat.identity
    level = d.level(pair[1].src_rank)
    (c,) = d.components(g, f)
    keep, move = (level.src, level.tgt) if end == "target" else (level.tgt, level.src)
    stray = next(m for m in range(level.n_mor) if keep[m] == keep[c] and move[m] != move[c])
    expected = assert_matches_the_reference(recell(d, numbers, [stray]))
    assert expected[0] == ("cell at (%r, %r) is not natural: component at object 0 has"
                           " wrong endpoints" % pair)


@pytest.mark.parametrize("end", ["target", "source"])
def test_a_wrong_end_is_the_only_fault_at_a_pair_off_the_generators(end):
    # identity actions and cells on the chaotic category on two objects,
    # except one cell whose component at object 0 runs into or out of
    # object 1; its first map is neither a generator nor an identity, so
    # the decision reads its ends only through the generator walk
    site, level = ps.OrdinalSite(2), fc.chaotic(2)
    gens = site.generators()
    (stray,) = level.hom(0, 1) if end == "target" else level.hom(1, 0)
    for pair in [(g, f) for g, f in legless_pairs(site) if f not in gens][::25]:
        expected = assert_matches_the_reference(
            cells_at(site, level, {pair: [stray, level.identity[1]]}))
        assert expected[0] == ("cell at (%r, %r) is not natural: component at object 0 has"
                               " wrong endpoints" % tuple(map(site.maps.__getitem__, pair)))


@pytest.mark.parametrize("strategy", ["cleavage", "retraction"])
@pytest.mark.parametrize("name", ["family", "tf2"])
def test_family_and_tf2_match_the_exhaustive_reference(diagrams, name, strategy):
    d = diagrams[(name, strategy)]
    assert ps.validate_pseudo(d) == reference_pseudo(d) == []


def test_swap_action_broken_at_a_composite_matches_the_reference():
    # the square of the generator of the first copy of Z/3 is morphism 2; an
    # action sending it to the generator itself breaks composition only at
    # (1, 1), and the cells into it fail naturality only at morphism 2
    d = twisted_swap(ps.OrdinalSite(2))
    f_star = ds.SimplexMap(1, 1, (0, 0))
    act = d.action(d.site.index[f_star])
    gens = fc.generators(act.source)
    assert 2 not in gens and 1 in gens
    mor_map = list(act.mor_map)
    mor_map[2] = act.mor_map[1]
    broken = fc.FunctorMap(act.source, act.target, act.obj_map, mor_map)
    bd = retarget(d, d.site.index[f_star], broken)
    expected = reference_pseudo(bd, 10**6)
    assert "action of %r is not a functor: composition of (1, 1) is not preserved" % (
        f_star,) in expected
    assert any("naturality square at morphism 2 does not commute" in p for p in expected)
    for max_problems in (1, 2, 20, 10**6):
        assert ps.validate_pseudo(bd, max_problems=max_problems) == expected[:max_problems]


@pytest.mark.parametrize("g_star", [ds.SimplexMap(0, 2, (1,)), ds.SimplexMap(1, 1, (0, 0))])
def test_a_square_failing_only_through_the_composite_action_is_found(g_star):
    # g_star acts by the identity of two copies of Z/3; acting by negation
    # instead keeps every object map, so every component keeps its
    # endpoints, and at a pair (g_star, s) the actions of s and of g_star.s
    # are as before: only the composite action(s) . action(g_star) moves,
    # and only on morphisms
    d = twisted_swap(ps.OrdinalSite(2))
    level = d.level(0)
    assert d.action(d.site.index[g_star]) == fc.identity_functor(level)
    neg = fc.FunctorMap(level, level, range(2), [3 * (m // 3) + (-m) % 3 for m in range(6)])
    expected = assert_matches_the_reference(retarget(d, d.site.index[g_star], neg))
    for s in map(d.site.maps.__getitem__, d.site.generators()):
        if s.tgt_rank == g_star.src_rank:
            assert ("cell at (%r, %r) is not natural: naturality square at morphism 1 does"
                    " not commute" % (g_star, s)) in expected


def test_tf2_action_broken_off_the_generators_is_reported(diagrams):
    d = diagrams[("tf2", "cleavage")]
    f_star = ds.SimplexMap(2, 3, (0, 1, 3))
    act = d.action(d.site.index[f_star])
    cat = act.source
    h = next(m for m in range(cat.n_mor)
             if m not in fc.generators(cat) and m not in cat.identity)
    mor_map = list(act.mor_map)
    mor_map[h] = act.target.identity[act.obj_map[cat.src[h]]]
    broken = fc.FunctorMap(cat, act.target, act.obj_map, mor_map)
    assert reference_validate_functor(broken)
    bd = retarget(d, d.site.index[f_star], broken)
    assert ps.validate_pseudo(bd, coherence=False, max_problems=1) == [
        "action of %r is not a functor: %s" % (f_star, reference_validate_functor(broken)[0])]


def test_tf2_cell_failing_off_the_generators_is_reported(diagrams):
    # f_star = s0 d1 on [1]; the second pair out of [1] composes to it, and
    # every pair before that leaves the tampered action out
    d = diagrams[("tf2", "cleavage")]
    f_star = ds.SimplexMap(1, 1, (0, 0))
    g, f = ds.SimplexMap(0, 1, (0,)), ds.SimplexMap(1, 0, (0, 0))
    act = d.action(d.site.index[f_star])
    cat = act.source
    gens = fc.generators(cat)
    h = next(m for m in range(cat.n_mor) if m not in gens and m not in cat.identity)
    out = act.target
    wrong = next(m for m in range(out.n_mor) if out.src[m] == act.obj_map[cat.src[h]]
                 and out.tgt[m] != act.obj_map[cat.tgt[h]])
    mor_map = list(act.mor_map)
    mor_map[h] = wrong
    broken = fc.FunctorMap(cat, act.target, act.obj_map, mor_map)
    bd = retarget(d, d.site.index[f_star], broken)
    cell = bd.cell(d.site.index[g], d.site.index[f])
    assert fc.validate_nat(cell) == ["naturality square at morphism %d does not commute" % h]
    assert ps.validate_pseudo(bd, coherence=False, max_problems=2) == [
        "action of %r is not a functor: %s" % (f_star, reference_validate_functor(broken)[0]),
        "cell at (%r, %r) is not natural: %s" % (g, f, fc.validate_nat(cell)[0])]


def test_coherence_around_an_action_with_wrong_endpoints_matches_the_reference():
    # the twisted Z/2 diagram with one action landing in the wrong levels:
    # the action is refused where it is first read, and so is every cell
    # that reads it, before any law is judged
    d = twisted_constant(ps.OrdinalSite(2))
    f_star = ds.SimplexMap(1, 2, (0, 2))
    index = d.site.index
    bd = retarget(d, index[f_star], fc.identity_functor(fc.discrete(1)))
    message = "^%s$" % re.escape("action of %r has wrong endpoints" % (f_star,))
    with pytest.raises(ValueError, match=message):
        bd.action(index[f_star])
    with pytest.raises(ValueError, match=message):
        bd.cell(index[ds.codegeneracy(0, 1)], index[f_star])
    for max_problems in (1, 20, 10**6):
        with pytest.raises(ValueError, match=message):
            ps.validate_pseudo(bd, max_problems=max_problems)


def test_an_action_with_wrong_endpoints_does_not_stop_the_report():
    # acting by the identity of level 1 makes (1,) : [0] -> [1] land in the
    # wrong level; pairs through it used to raise "functors are not
    # composable", and now the action itself is refused with its map
    levels = {0: fc.discrete(1), 1: fc.discrete(2)}
    site = ps.OrdinalSite(1)

    def constant(a, b, obj):
        src, tgt = levels[a], levels[b]
        return fc.FunctorMap(src, tgt, [obj] * src.n_obj, [tgt.identity[obj]] * src.n_mor)

    def action(f):
        f = site.maps[f]
        if f.values == (1,):
            return fc.identity_functor(levels[1])
        return constant(f.tgt_rank, f.src_rank, f.values[-1] if f.src_rank else 0)

    d = ps.PseudoDiagram(site, levels.__getitem__, action, lambda g, f: None)
    f_star = ds.SimplexMap(0, 1, (1,))
    message = "^%s$" % re.escape("action of %r has wrong endpoints" % (f_star,))
    with pytest.raises(ValueError, match=message):
        d.action(site.index[f_star])
    for coherence in (True, False):
        with pytest.raises(ValueError, match=message):
            ps.validate_pseudo(d, coherence=coherence, max_problems=1)


def test_a_cell_that_is_not_invertible_is_reported():
    # z is natural on the identity functor, but it has no inverse
    g, f = ds.codegeneracy(0, 0), ds.coface(1, 1)
    site = ps.OrdinalSite(1)
    d = cells_at(site, IDEMPOTENT, {(site.index[g], site.index[f]): [1]})
    first = "cell at (%r, %r) is not invertible" % (g, f)
    assert ps.validate_pseudo(d, max_problems=1) == [first]
    report = ps.validate_pseudo(d)
    assert report[0] == first
    assert report == reference_pseudo(d)


# -- what PseudoDiagram guarantees, and the malformed input it refuses ---------


def test_validate_pseudo_refuses_a_diagram_that_is_not_a_pseudo_diagram():
    # a diagram given by bare methods could act on an identity by a swap
    # and hand out any cell; validate_pseudo judges only PseudoDiagram values
    level = fc.chaotic(2)
    swap = fc.FunctorMap(level, level, [1, 0], [3, 2, 1, 0])
    cell = fc.NatTransf(fc.identity_functor(level), swap, [1, 2])
    d = types.SimpleNamespace(site=ps.OrdinalSite(0), level=lambda a: level,
                              action=lambda f: swap, cell=lambda g, f: cell)
    with pytest.raises(ValueError, match="^validate_pseudo takes a PseudoDiagram, not"
                                         " SimpleNamespace$"):
        ps.validate_pseudo(d)


def test_identities_act_as_identities_and_identity_leg_cells_are_identities():
    # action_fn answers every map with a swap and cell_fn every pair with
    # non-identity components, but neither is asked about an identity map
    # or a pair with an identity leg
    level = fc.chaotic(2)
    swap = fc.FunctorMap(level, level, [1, 0], [3, 2, 1, 0])
    site = ps.OrdinalSite(1)
    asked = []

    def cell(g, f):
        asked.append((g, f))
        return [1, 2]

    d = ps.PseudoDiagram(site, lambda a: level, lambda f: swap, cell)
    units = site.cat.identity
    for a in site.objects:
        assert d.action(units[a]) == fc.identity_functor(level)
    for g, f in corpus.composable_pairs(site):
        made = d.cell(g, f)
        assert made.source == fc.compose_functors(d.action(f), d.action(g))
        assert made.target == d.action(site.cat.compose(g, f))
        if f in units or g in units:
            assert made.components == tuple(level.identity[x] for x in made.source.obj_map)
    assert asked and not any(f in units or g in units for g, f in asked)
    # the generator at a pair with an identity leg and a first map that is
    # no generator: no check could see it, and the type does not let it in
    pair = (units[1], site.index[ds.SimplexMap(1, 1, (0, 0))])
    z2 = ps.PseudoDiagram(site, lambda a: Z2, lambda f: fc.identity_functor(Z2),
                          lambda g, f: [1] if (g, f) == pair else None)
    assert z2.cell(*pair).components == (0,)
    assert ps.validate_pseudo(z2) == reference_pseudo(z2) == []


def skewed_diagram():
    """A diagram over OrdinalSite(1) whose site has no units.

    There the identity of [1] after the coface skipping 0 is the other
    coface; the coface [0] -> [1] with value v picks object v of level 0.
    """
    site = ps.OrdinalSite(1)
    cat, index = site.cat, site.index
    g, f = cat.identity[1], index[ds.coface(0, 1)]
    other = index[ds.coface(1, 1)]
    site.cat = fc.FinCat(cat.n_obj, cat.src, cat.tgt, cat.identity,
                         rule=lambda h, e: other if (h, e) == (g, f) else cat.compose(h, e))
    levels = {0: fc.discrete(2), 1: fc.discrete(1)}
    return ps.PseudoDiagram(site, levels.__getitem__,
                            lambda e: fc.FunctorMap(levels[1], levels[0], site.maps[e].values,
                                                    site.maps[e].values),
                            lambda h, e: None), (g, f)


def test_an_identity_leg_over_a_site_without_units_is_refused():
    d, pair = skewed_diagram()
    g, f = ds.identity_simplex(1), ds.coface(0, 1)
    with pytest.raises(ValueError, match=re.escape(
            "identity-leg cell at (%r, %r): the composite action is not the action"
            " of the composite" % (g, f))):
        d.cell(*pair)


@pytest.mark.parametrize("obj_map, message", [
    ([5], "object map out of range"),
    ([0, 0], "functor map lengths disagree with the source: the object map has length 2"
             " but the source has 1 objects")], ids=["out of range", "length"])
def test_a_malformed_action_is_named(obj_map, message):
    level = fc.discrete(1)
    site = ps.OrdinalSite(1)
    d = ps.PseudoDiagram(site, lambda a: level,
                         lambda f: fc.FunctorMap(level, level, obj_map, [0]), lambda g, f: None)
    # the first map that is not an identity
    f = ds.SimplexMap(0, 1, (0,))
    named = "^%s$" % re.escape("action of %r: %s" % (f, message))
    with pytest.raises(ValueError, match=named):
        d.action(site.index[f])
    with pytest.raises(ValueError, match=named):
        d.cell(site.index[ds.codegeneracy(0, 0)], site.index[f])
    with pytest.raises(ValueError, match=named):
        ps.validate_pseudo(d)


@pytest.mark.parametrize("coherence", [True, False])
@pytest.mark.parametrize("pair", [(ds.codegeneracy(0, 0), ds.coface(1, 1)),
                                  (ds.codegeneracy(0, 0), ds.SimplexMap(1, 1, (0, 0)))],
                         ids=["generator first", "composite first"])
@pytest.mark.parametrize("components, message", [
    ([], "one component per source object is required"),
    ([7], "component out of range"),
    ([None], "the components hold an entry that is not an id")],
    ids=["none", "out of range", "not an id"])
def test_a_malformed_cell_is_named(components, message, pair, coherence):
    # the wording is validate_nat's, from the one shape check both use
    ident = fc.identity_functor(Z2)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        fc.validate_nat(fc.NatTransf(ident, ident, components))
    site = ps.OrdinalSite(1)
    numbers = tuple(map(site.index.get, pair))
    d = cells_at(site, Z2, {numbers: components})
    named = "^%s$" % re.escape("cell at (%r, %r): %s" % (pair + (message,)))
    with pytest.raises(ValueError, match=named):
        d.cell(*numbers)
    with pytest.raises(ValueError, match=named):
        ps.validate_pseudo(d, coherence=coherence)


def test_a_cell_with_wrong_endpoints_and_no_components_is_reported_once():
    # the coherence walk used to raise IndexError reading such a cell; a
    # cell now runs between its own actions, and no components is refused
    # once, where the cell is built
    pair = (ds.codegeneracy(0, 0), ds.SimplexMap(1, 1, (0, 0)))
    site = ps.OrdinalSite(1)
    numbers = tuple(map(site.index.get, pair))
    d = cells_at(site, Z2, {numbers: []})
    named = "^%s$" % re.escape("cell at (%r, %r): one component per source object is required"
                               % pair)
    with pytest.raises(ValueError, match=named):
        d.cell(*numbers)
    for coherence in (True, False):
        with pytest.raises(ValueError, match=named):
            ps.validate_pseudo(d, coherence=coherence, max_problems=10**6)


# -- components: the data of a cell, read without building it -----------------


@pytest.mark.parametrize("make", [lambda: wg.tr2_strong_segalic(corpus.double("nerve")).diagram,
                                  lambda: twisted_swap(ps.OrdinalSite(2))],
                         ids=["nerve", "swap"])
def test_components_are_the_components_of_the_cell(make):
    d = make()
    for g, f in corpus.composable_pairs(d.site):
        assert d.cell(g, f).components == d.components(g, f)


@pytest.mark.parametrize("components, message", [
    ([], "one component per source object is required"),
    ([7], "component out of range"),
    ([None], "the components hold an entry that is not an id")],
    ids=["none", "out of range", "not an id"])
def test_malformed_components_are_refused_before_a_cell_is_built(components, message,
                                                                monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(fc, "NatTransf", no_cell)
    pair = (ds.codegeneracy(0, 0), ds.SimplexMap(1, 1, (0, 0)))
    site = ps.OrdinalSite(1)
    numbers = tuple(map(site.index.get, pair))
    d = cells_at(site, Z2, {numbers: components})
    named = "^%s$" % re.escape("cell at (%r, %r): %s" % (pair + (message,)))
    with pytest.raises(ValueError, match=named):
        d.components(*numbers)
    for coherence in (True, False):
        with pytest.raises(ValueError, match=named):
            ps.validate_pseudo(d, coherence=coherence)


def test_identity_leg_components_over_a_site_without_units_are_refused(monkeypatch):
    # the identity of [1] after the coface skipping 0 is the other coface
    d, pair = skewed_diagram()
    g, f = ds.identity_simplex(1), ds.coface(0, 1)
    nat, built = fc.NatTransf, []
    monkeypatch.setattr(fc, "NatTransf", lambda *args: built.append(args) or nat(*args))
    refused = "^%s$" % re.escape("identity-leg cell at (%r, %r): the composite action is not"
                                 " the action of the composite" % (g, f))
    with pytest.raises(ValueError, match=refused):
        d.components(*pair)
    with pytest.raises(ValueError, match=refused):
        d.cell(*pair)
    assert built == []


def test_components_given_as_none_are_identities_read_without_composing(monkeypatch):
    # a map whose ranks differ by an odd number acts by the swap of two
    # objects, so some identities sit at the objects the composite action
    # reaches, not at the objects of level(tgt g) they are indexed by
    level = fc.chaotic(2)
    swap = fc.FunctorMap(level, level, [1, 0], [3, 2, 1, 0])
    site = ps.OrdinalSite(1)
    d = ps.PseudoDiagram(site, lambda a: level,
                         lambda f: swap if (site.cat.tgt[f] - site.cat.src[f]) % 2
                         else fc.identity_functor(level), lambda g, f: None)
    composed = []
    monkeypatch.setattr(fc, "compose_functors", lambda g, f: composed.append((g, f)))
    found = {pair: d.components(*pair) for pair in legless_pairs(site)}
    assert composed == []
    monkeypatch.undo()
    for (g, f), comps in found.items():
        composite = fc.compose_functors(d.action(f), d.action(g))
        assert comps == tuple(level.identity[x] for x in composite.obj_map)
    assert set(found.values()) == {level.identity, level.identity[::-1]}
    assert ps.validate_pseudo(d) == reference_pseudo(d) == []
