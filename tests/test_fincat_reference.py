"""Iso classes, equivalence flags, functor laws and fiber products: checks against the old code.

``fincat.iso_classes`` used to ask ``is_iso`` of every morphism,
``fincat.equivalence_flags`` compared the image of every hom set with its
target hom set as sets, ``fincat.validate_functor`` walked every composable
pair of the source through both composition tables, and
``fincat.chain_fiber_product`` assembled each endpoint and identity tuple in
its own generator expression.  The docstrings of the first three give why
the new code decides the same thing.  The old code is kept here verbatim,
only as the oracle.  It runs on every category, functor and fiber product
that the two pipelines hand to these functions on the corpus, on every
failing case of the two builders, and on seeded random maps, functors or
not, between products of a thin category with a cyclic group, whose hom
sets have more than one element.
"""

import collections
import random

import pytest

from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus
import test_builder_messages as messages


def reference_iso_classes(cat):
    """Isomorphism classes of objects.

    Returns (classes, class_of): sorted lists ordered by least member, and the
    quotient map object id -> class index.
    """
    parent = list(range(cat.n_obj))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in range(cat.n_mor):
        if cat.is_iso(m):
            a, b = find(cat.src[m]), find(cat.tgt[m])
            if a != b:
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


def reference_equivalence_flags(fun):
    """Fully-faithful / essentially-surjective / injective-on-objects flags.

    Malformed maps raise ValueError, as in ``validate_functor``.
    """
    fc._check_functor_shape(fun)
    a, b = fun.source, fun.target
    ff = True
    for x in range(a.n_obj):
        for y in range(a.n_obj):
            image = [fun.mor_map[m] for m in a.hom(x, y)]
            if len(set(image)) < len(image) or set(b.hom(fun.obj_map[x], fun.obj_map[y])) != set(image):
                ff = False
    hit = set(fun.obj_map)
    eso = all(any(x in hit for x in cls) for cls in reference_iso_classes(b)[0])
    return {
        "fully_faithful": ff,
        "essentially_surjective": eso,
        "injective_on_objects": len(set(fun.obj_map)) == a.n_obj,
        "is_equivalence": ff and eso,
    }


def reference_validate_functor(fun):
    """Functor laws as a violation list; malformed maps raise ValueError."""
    fc._check_functor_shape(fun)
    a, b = fun.source, fun.target
    problems = []
    for m in range(a.n_mor):
        fm = fun.mor_map[m]
        if b.src[fm] != fun.obj_map[a.src[m]] or b.tgt[fm] != fun.obj_map[a.tgt[m]]:
            problems.append("morphism %d is not sent to a morphism between its image endpoints" % m)
    for x in range(a.n_obj):
        if fun.mor_map[a.identity[x]] != b.identity[fun.obj_map[x]]:
            problems.append("identity of object %d is not preserved" % x)
    bcomp = b.comp
    for (g, f), h in a.comp.items():
        want = bcomp.get((fun.mor_map[g], fun.mor_map[f]))
        if want != fun.mor_map[h]:
            problems.append("composition of (%d, %d) is not preserved" % (g, f))
    return problems


def reference_assembly(factors, right_maps, left_maps):
    """(labels, ids, src/tgt/identity tables, projection maps) of the fiber product."""
    k = len(factors)

    def tuples(sizes, right_of, left_of):
        out = [(v,) for v in range(sizes[0])]
        for i in range(1, k):
            buckets = {}
            for v in range(sizes[i]):
                buckets.setdefault(left_of[i - 1](v), []).append(v)
            out = [t + (v,) for t in out for v in buckets.get(right_of[i - 1](t[-1]), ())]
        return out

    objs = tuple(tuples([c.n_obj for c in factors],
                        [r.obj for r in right_maps], [l.obj for l in left_maps]))
    mors = tuple(tuples([c.n_mor for c in factors],
                        [r.mor for r in right_maps], [l.mor for l in left_maps]))
    obj_id = {t: i for i, t in enumerate(objs)}
    mor_id = {t: i for i, t in enumerate(mors)}
    src = [obj_id[tuple(factors[i].src[t[i]] for i in range(k))] for t in mors]
    tgt = [obj_id[tuple(factors[i].tgt[t[i]] for i in range(k))] for t in mors]
    identity = [mor_id[tuple(factors[i].identity[t[i]] for i in range(k))] for t in objs]
    projections = [(tuple([t[i] for t in objs]), tuple([t[i] for t in mors]))
                   for i in range(k)]
    return objs, mors, obj_id, mor_id, tuple(src), tuple(tgt), tuple(identity), projections


def assembly(chain):
    """The same parts of a built chain, for comparison with ``reference_assembly``."""
    cat = chain.cat
    return (chain.obj_label, chain.mor_label, chain.obj_id, chain.mor_id, cat.src, cat.tgt,
            cat.identity, [(p.obj_map, p.mor_map) for p in chain.projections])


@pytest.fixture
def checked(monkeypatch):
    """Compare every call of the four functions with the reference as it happens.

    Returns (calls per function, mismatches as (function, arguments)).
    ``equivalence_flags`` reaches ``iso_classes`` through the module, so its
    inner calls are checked too.  A functor check is compared after the new
    code has run, so the reference forces no table before it does.
    """
    calls, bad = collections.Counter(), []
    real = {name: getattr(fc, name) for name in
            ("iso_classes", "equivalence_flags", "validate_functor", "chain_fiber_product")}

    def iso_classes(cat):
        out = real["iso_classes"](cat)
        calls["iso_classes"] += 1
        if out != reference_iso_classes(cat):
            bad.append(("iso_classes", cat))
        return out

    def equivalence_flags(fun):
        out = real["equivalence_flags"](fun)
        calls["equivalence_flags"] += 1
        if out != reference_equivalence_flags(fun):
            bad.append(("equivalence_flags", fun))
        return out

    def validate_functor(fun):
        out = real["validate_functor"](fun)
        calls["validate_functor"] += 1
        if out != reference_validate_functor(fun):
            bad.append(("validate_functor", fun))
        return out

    def chain_fiber_product(factors, right_maps, left_maps):
        out = real["chain_fiber_product"](factors, right_maps, left_maps)
        calls["chain_fiber_product"] += 1
        if assembly(out) != reference_assembly(factors, right_maps, left_maps):
            bad.append(("chain_fiber_product", (factors, right_maps, left_maps)))
        return out

    for name, spy in (("iso_classes", iso_classes), ("equivalence_flags", equivalence_flags),
                      ("validate_functor", validate_functor),
                      ("chain_fiber_product", chain_fiber_product)):
        monkeypatch.setattr(fc, name, spy)
    return calls, bad


# -- the corpus pipelines ------------------------------------------------------


DOUBLES = corpus.builders(["nerve", "family", "tf2", "micro"] + corpus.seeds((4, 5, 6)))

# the stages at which the micro counterexample is rejected
MICRO_REJECTED = ["tr2 cleavage", "tr2 retraction", "double 2-equivalence",
                  "fair2", "fair 2-equivalence"]


def stages(x):
    """Both pipelines and the 2-equivalence verdicts on x, as (name, thunk)."""
    return [
        ("catwg2", lambda: wg.validate_catwg2(x)),
        ("tr2 cleavage", lambda: wg.tr2_strong_segalic(x, "cleavage")),
        ("tr2 retraction", lambda: wg.tr2_strong_segalic(x, "retraction")),
        ("double 2-equivalence", lambda: wg.is_2equivalence_double(wg.identity_double_map(x))),
        ("fairwg", lambda: f2.validate_fairwg(f2.pi_star(x))),
        ("fair2", lambda: f2.validate_fair2(f2.discretize_fair(f2.pi_star(x)))),
        ("fair 2-equivalence",
         lambda: f2.is_2equivalence_fair(f2.identity_fair_map(f2.pi_star(x)))),
    ]


@pytest.mark.parametrize("name", DOUBLES)
def test_pipelines_agree_with_the_reference(checked, name):
    calls, bad = checked
    rejected = []
    x = DOUBLES[name]()
    for stage, run in stages(x):
        try:
            run()
        except ValueError:
            rejected.append(stage)
    assert rejected == (MICRO_REJECTED if name == "micro" else [])
    assert set(calls) == {"iso_classes", "equivalence_flags", "validate_functor",
                          "chain_fiber_product"}
    assert bad == []
    # strict tuples keep their labels in the hat chains, so they stay distinct
    sd = wg.segal_data(x)
    for muhat in (sd.muhat2, sd.muhat3):
        assert fc.equivalence_flags(muhat)["injective_on_objects"]


# -- random maps between thin categories times cyclic groups -------------------


def cyclic(k):
    return fc.FinCat(1, [0] * k, [0] * k, [0],
                     {(i, j): (i + j) % k for i in range(k) for j in range(k)})


def random_preorder(rng, n):
    """A thin category on n objects: the closure of random pairs."""
    rel = {(x, x) for x in range(n)}
    rel.update((x, y) for x in range(n) for y in range(n) if rng.random() < 0.35)
    while True:
        more = {(x, z) for (x, y) in rel for (w, z) in rel if y == w} - rel
        if not more:
            return fc.thin_from_preorder(n, rel)
        rel |= more


def thin_times_cyclic(thin, k):
    """The product chain thin x Z/k, built as a fiber product over the point."""
    point = fc.discrete(1)
    group = cyclic(k)
    return fc.chain_fiber_product(
        [thin, group],
        [fc.FunctorMap(thin, point, [0] * thin.n_obj, [0] * thin.n_mor)],
        [fc.FunctorMap(group, point, [0], [0] * k)])


def random_map(rng, source, target):
    """A map source -> target of products: an object map, a tag map, maybe a fault.

    A morphism (t, g) goes to the morphism of the target's thin factor
    between the image endpoints, tagged (a * g + c) mod k, or to a random
    morphism when there is none; one entry in five maps is then overwritten
    at random.  Such a map is a functor only when the object map is monotone,
    c is 0, a is a homomorphism of the cyclic groups and nothing was
    overwritten.
    """
    thin_s, thin_t = (c.projections[0].target for c in (source, target))
    k = target.projections[1].target.n_mor
    obj = [rng.randrange(thin_t.n_obj) for _ in range(thin_s.n_obj)]
    a, c = rng.randrange(k), rng.choice([0, 0, rng.randrange(k)])
    mor = []
    for t, g in source.mor_label:
        over = thin_t.hom(obj[thin_s.src[t]], obj[thin_s.tgt[t]])
        mor.append(target.mor_id[(over[0], (a * g + c) % k)] if over
                   else rng.randrange(target.cat.n_mor))
    if rng.random() < 0.2:
        mor[rng.randrange(len(mor))] = rng.randrange(target.cat.n_mor)
    return fc.FunctorMap(source.cat, target.cat, obj, mor)


def test_random_maps_of_products_agree_with_the_reference(checked):
    calls, bad = checked
    kinds = collections.Counter()
    for seed in range(40):
        rng = random.Random(seed)
        pool = [thin_times_cyclic(random_preorder(rng, rng.randint(1, 4)), rng.randint(1, 3))
                for _ in range(6)]
        for _ in range(100):
            source, target = rng.choice(pool), rng.choice(pool)
            fun = random_map(rng, source, target)
            kind = "functors" if not fc.validate_functor(fun) else "other maps"
            kinds[kind] += 1
            kinds.update((kind, name) for name, flag in fc.equivalence_flags(fun).items()
                         if flag)
    assert bad == []
    assert calls["chain_fiber_product"] == 240
    assert calls["equivalence_flags"] == calls["validate_functor"] == 4000
    # every flag is raised and withheld, on functors and on other maps alike
    assert kinds == {
        "functors": 1940, "other maps": 2060,
        ("functors", "fully_faithful"): 334, ("other maps", "fully_faithful"): 46,
        ("functors", "essentially_surjective"): 1088,
        ("other maps", "essentially_surjective"): 1053,
        ("functors", "injective_on_objects"): 951, ("other maps", "injective_on_objects"): 760,
        ("functors", "is_equivalence"): 241, ("other maps", "is_equivalence"): 30}


# -- the failing cases of the two builders --------------------------------------


def raising(build, make, message):
    def run():
        with pytest.raises(ValueError, match=message):
            build(*make())
    return run


BUILDER_CASES = dict(
    [("double " + name, raising(wg.from_generators, make, message))
     for name, make, message in messages.DOUBLE_CASES]
    + [("fair " + name, raising(f2.from_presentation, make, message))
       for name, make, message in messages.FAIR_CASES]
    + [("double cell endpoints", messages.test_composite_cells_must_keep_their_endpoints),
       ("double cell associativity",
        messages.test_associativity_failing_only_on_cells_names_the_cell_triple)])


@pytest.mark.parametrize("name", BUILDER_CASES)
def test_failing_builder_inputs_agree_with_the_reference(checked, name):
    _, bad = checked
    BUILDER_CASES[name]()
    assert bad == []
