"""Segal sections, counits, mediating functors and iso classes: checks against the old code.

``fincat.retraction_pseudo_inverse`` used to find each transported
morphism by scanning its hom set and to invert a counit component once per
morphism, ``anchored.walk_section`` inverted a walk's cells once per
morphism and component and composed with identity cells too,
``fincat.mediating_functor`` built each label in its own generator
expression, and ``fincat.iso_classes`` ran its union-find on every call.
The docstrings of the new code give why it computes the same thing.  The
old code is kept here verbatim, only as the oracle.  It runs on every call
Tr2 makes on the corpus under both of its strategies, on every call the
fair pair sections of pi* of the family and of its rebasing make (the
library's cleavage walks, and the retired fair "retraction" strategy's
generic retractions as ``tests/test_assembly_reference.py`` rebuilds
them), and on seeded cones with one or two entries of a leg moved.
"""

import collections
import random

import pytest

from wgfair import anchored as an
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus
from test_assembly_reference import retraction_sections


def reference_iso_classes(cat):
    """Isomorphism classes of objects.

    Returns (classes, class_of): sorted lists ordered by least member, and the
    quotient map object id -> class index.

    The classes are the components of the graph of isomorphisms, grown by
    union-find in morphism order.  A morphism whose ends are already in one
    class cannot change the partition, so ``is_iso`` is asked only of a
    morphism between two classes; the result depends on the partition alone,
    so it is the one every morphism's test gives.
    """
    parent = list(range(cat.n_obj))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m, (x, y) in enumerate(zip(cat.src, cat.tgt)):
        a, b = find(x), find(y)
        if a != b and cat.is_iso(m):
            parent[max(a, b)] = min(a, b)
    groups = {}
    for x in range(cat.n_obj):
        groups.setdefault(find(x), []).append(x)
    classes = sorted(groups.values())
    class_of = [0] * cat.n_obj
    for i, cls in enumerate(classes):
        for x in cls:
            class_of[x] = i
    return classes, tuple(class_of)


def reference_mediating_functor(chain, cone_maps):
    """The unique functor into a fiber product matching the given cone.

    cone_maps[i] : T -> factors[i] must agree under the chain's constraint
    maps (ValueError otherwise); the projections are jointly injective, so
    uniqueness is forced and the mediating functor is the tuple pairing.
    """
    if len(cone_maps) != len(chain.projections):
        raise ValueError("one cone leg per factor is required")
    t = cone_maps[0].source
    for i, c in enumerate(cone_maps):
        fc._check_lengths(c, t, "cone leg %d's " % i, "the cone's source")
    obj_map, mor_map = [], []
    for x in range(t.n_obj):
        lab = tuple(c.obj_map[x] for c in cone_maps)
        if lab not in chain.obj_id:
            raise ValueError("cone legs disagree on object %d" % x)
        obj_map.append(chain.obj_id[lab])
    for m in range(t.n_mor):
        lab = tuple(c.mor_map[m] for c in cone_maps)
        if lab not in chain.mor_id:
            raise ValueError("cone legs disagree on morphism %d" % m)
        mor_map.append(chain.mor_id[lab])
    return fc.FunctorMap(t, chain.cat, obj_map, mor_map)


def reference_retraction_pseudo_inverse(fun):
    """Retraction of an injective-on-objects equivalence F, with G . F = Id.

    Counit components FG => Id are identities on the image of F; off the
    image the smallest witnessing object and then the smallest iso are
    chosen, so the result is deterministic.
    """
    flags = fc.equivalence_flags(fun)
    if not (flags["is_equivalence"] and flags["injective_on_objects"]):
        raise ValueError("need an injective-on-objects equivalence")
    a, b = fun.source, fun.target
    preim = {fun.obj_map[x]: x for x in range(a.n_obj)}
    gobj, eps = [], []
    for y in range(b.n_obj):
        if y in preim:
            gobj.append(preim[y])
            eps.append(b.identity[y])
        else:
            found = next((x, m) for x in range(a.n_obj)
                         for m in b.hom(fun.obj_map[x], y) if b.is_iso(m))
            gobj.append(found[0])
            eps.append(found[1])
    gmor = []
    for m in range(b.n_mor):
        y0, y1 = b.src[m], b.tgt[m]
        conj = b.compose(b.inverse(eps[y1]), b.compose(m, eps[y0]))
        cand = [n for n in a.hom(gobj[y0], gobj[y1]) if fun.mor_map[n] == conj]
        if len(cand) != 1:
            raise ValueError("transport of morphism %d has %d preimages, not one"
                             % (m, len(cand)))
        gmor.append(cand[0])
    g = fc.FunctorMap(b, a, gobj, gmor)
    counit = fc.NatTransf(fc.compose_functors(fun, g), fc.identity_functor(b), eps)
    return fc.Retraction(g, counit)


def reference_walk_section(level, end, hat, strict, step):
    """(section of strict -> hat, counit components) by walking tuples.

    The first component is the anchor; step(a, point) moves each later
    component a to start at point, the end of the one before, and returns
    (object, invertible cell onto a).  Morphisms are conjugated by the cells.
    """
    walks = []
    for t in hat.obj_label:
        objs, lams = [t[0]], [level.identity[t[0]]]
        for a in t[1:]:
            g, lam = step(a, end.obj(objs[-1]))
            objs.append(g)
            lams.append(lam)
        walks.append((tuple(objs), tuple(lams)))
    obj_map = [strict.obj_id[objs] for objs, _ in walks]
    mor_map = []
    for mid, mt in enumerate(hat.mor_label):
        _, lams_a = walks[hat.cat.src[mid]]
        _, lams_b = walks[hat.cat.tgt[mid]]
        parts = tuple(
            level.compose(level.inverse(lams_b[j]), level.compose(mt[j], lams_a[j]))
            for j in range(len(mt)))
        mor_map.append(strict.mor_id[parts])
    nu = fc.FunctorMap(hat.cat, strict.cat, obj_map, mor_map)
    return nu, [hat.mor_id[lams] for _, lams in walks]


def functor_parts(fun):
    return fun.source, fun.target, fun.obj_map, fun.mor_map


def retraction_parts(r):
    """G's maps, then the counit's two functors and its components."""
    return (functor_parts(r.backward), functor_parts(r.counit.source),
            functor_parts(r.counit.target), r.counit.components)


def outcome(fn, *args):
    """("raises", message) for a ValueError, else ("returns", value)."""
    try:
        return "returns", fn(*args)
    except ValueError as err:
        return "raises", str(err)


def mediating_outcome(fn, chain, cone_maps):
    kind, out = outcome(fn, chain, cone_maps)
    return (kind, out) if kind == "raises" else (kind, functor_parts(out))


@pytest.fixture
def checked(monkeypatch):
    """Compare every call of the four functions with the reference as it happens.

    Returns (calls per function, mismatches as (function, arguments)).  The
    new code runs first, so the reference reads only entries it computed
    or computes its own; ``fincat`` reaches ``iso_classes`` and
    ``mediating_functor`` through the module, so its inner calls are
    checked too.
    """
    calls, bad = collections.Counter(), []
    real = {"iso_classes": fc.iso_classes, "mediating_functor": fc.mediating_functor,
            "retraction_pseudo_inverse": fc.retraction_pseudo_inverse,
            "walk_section": an.walk_section}

    def iso_classes(cat):
        out = real["iso_classes"](cat)
        calls["iso_classes"] += 1
        if out != reference_iso_classes(cat):
            bad.append(("iso_classes", cat))
        return out

    def mediating_functor(chain, cone_maps):
        kind, out = outcome(real["mediating_functor"], chain, cone_maps)
        calls["mediating_functor"] += 1
        got = (kind, out) if kind == "raises" else (kind, functor_parts(out))
        if got != mediating_outcome(reference_mediating_functor, chain, cone_maps):
            bad.append(("mediating_functor", (chain, cone_maps)))
        if kind == "raises":
            raise ValueError(out)
        return out

    def retraction_pseudo_inverse(fun):
        out = real["retraction_pseudo_inverse"](fun)
        calls["retraction_pseudo_inverse"] += 1
        if retraction_parts(out) != retraction_parts(reference_retraction_pseudo_inverse(fun)):
            bad.append(("retraction_pseudo_inverse", fun))
        return out

    def walk_section(level, end, hat, strict, step):
        nu, comps = real["walk_section"](level, end, hat, strict, step)
        calls["walk_section"] += 1
        ref_nu, ref_comps = reference_walk_section(level, end, hat, strict, step)
        if (functor_parts(nu), comps) != (functor_parts(ref_nu), ref_comps):
            bad.append(("walk_section", (level, hat, strict)))
        return nu, comps

    for module, name, spy in ((fc, "iso_classes", iso_classes),
                              (fc, "mediating_functor", mediating_functor),
                              (fc, "retraction_pseudo_inverse", retraction_pseudo_inverse),
                              (an, "walk_section", walk_section)):
        monkeypatch.setattr(module, name, spy)
    return calls, bad


# -- Tr2 on the corpus -----------------------------------------------------------


DOUBLES = corpus.builders(["nerve", "family", "tf2"] + corpus.seeds((4, 5, 6)))
STRATEGIES = ["cleavage", "retraction"]

# the section each strategy computes for the two Segal maps muhat2, muhat3
SECTION_OF = {"cleavage": "walk_section", "retraction": "retraction_pseudo_inverse"}
# the fair side's, for the arrow and unit pair embeddings
FAIR_SECTIONS = {"cleavage": f2.pair_retractions, "retraction": retraction_sections}


@pytest.mark.parametrize("name", DOUBLES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tr2_sections_agree_with_the_reference(checked, name, strategy):
    calls, bad = checked
    res = wg.tr2_strong_segalic(DOUBLES[name](), strategy)
    assert wg.tr2_segal_report(res) == []
    assert calls[SECTION_OF[strategy]] == 2
    # the two Segal maps, the two assembled Segal maps of the report
    assert calls["mediating_functor"] >= 4
    assert calls["iso_classes"] > 0
    assert bad == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fair_pair_sections_agree_with_the_reference(checked, strategy):
    # discretize_fair retracts the pair embeddings of pi* of the family;
    # its rebasing has discrete points, so its hats are the strict pairs
    calls, bad = checked
    d = f2.pi_star(corpus.double("family"))
    FAIR_SECTIONS[strategy](d)
    rebased = f2.discretize_fair(d, "cleavage")
    FAIR_SECTIONS[strategy](rebased)
    # two sections per pair_retractions; discretize_fair walks two more
    assert calls[SECTION_OF[strategy]] == {"cleavage": 6, "retraction": 4}[strategy]
    assert calls["mediating_functor"] >= 4
    assert bad == []


# -- seeded cones with leg entries moved -----------------------------------------


def moved_cones(rng, legs, count, moves):
    """count copies of the cone legs, each with moves seeded entries of one leg map moved."""
    for _ in range(count):
        i = rng.randrange(len(legs))
        leg = legs[i]
        kind = rng.choice([k for k, n in (("obj", leg.source.n_obj),
                                          ("mor", leg.source.n_mor)) if n])
        image = list(getattr(leg, kind + "_map"))
        size = leg.target.n_obj if kind == "obj" else leg.target.n_mor
        for _ in range(moves):
            image[rng.randrange(len(image))] = rng.randrange(size)
        maps = {"obj_map": leg.obj_map, "mor_map": leg.mor_map, kind + "_map": image}
        yield legs[:i] + [fc.FunctorMap(leg.source, leg.target, **maps)] + legs[i + 1:]


@pytest.mark.parametrize("moves", [1, 2])
@pytest.mark.parametrize("name", ["nerve", "family", "seed 5"])
def test_moved_cone_legs_give_the_reference_answer(name, moves):
    # one entry moved gives a single witness; two can give two, of which the
    # message must name the first
    rng = random.Random("%s %d" % (name, moves))
    x = corpus.double(name)
    sd = wg.segal_data(x)
    kinds = collections.Counter()
    for k, hat in ((2, sd.hat2), (3, sd.hat3)):
        # the cones of muhat_k and of the identity of hat_k
        for legs in (list(x.chain(k).projections), list(hat.projections)):
            for cone in moved_cones(rng, legs, 20, moves):
                got = mediating_outcome(fc.mediating_functor, hat, cone)
                assert got == mediating_outcome(reference_mediating_functor, hat, cone)
                kinds[got[1].split(" ")[-2] if got[0] == "raises" else "agrees"] += 1
    # both first-witness messages come up, and so do moves that keep a cone
    assert set(kinds) == {"object", "morphism", "agrees"}


# -- iso classes kept on the category --------------------------------------------


@pytest.mark.parametrize("name", ["family", "seed 5"])
def test_kept_iso_classes_are_returned_as_fresh_lists(name):
    x = corpus.double(name)
    sd = wg.segal_data(x)
    for cat in (x.x0, x.x1, sd.hat2.cat, sd.hat3.cat):
        want = reference_iso_classes(cat)
        first = fc.iso_classes(cat)
        assert first == want
        classes, _ = first
        classes[0].append(cat.n_obj)
        classes.append([])
        again = fc.iso_classes(cat)
        assert again == want
        assert again[0][0] is not classes[0]
