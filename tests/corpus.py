"""The instances and maps the test modules share.

``free_arrow`` is the base category most instances are built over.  The
named double categories are the command line's (``cli.build_instance``)
plus tf2, the surjection of two points onto the point; random instances are
named "seed <n>" here and "wg<n>" on the command line.  The two double maps
at the end are tested on both sides, the fair side through
``fair2.pi_star_map``.  ``composable_pairs`` walks the pairs of map numbers
of an ordinal site in the order ``pseudo.validate_pseudo`` reports them.
"""

import functools

from wgfair import cli
from wgfair import fincat as fc
from wgfair import wgdouble as wg

free_arrow = cli.free_arrow


def point():
    return fc.thin_from_preorder(1, [(0, 0)])


def cyclic3():
    return fc.FinCat(1, [0, 0, 0], [0, 0, 0], [0],
                     {(i, j): (i + j) % 3 for i in range(3) for j in range(3)})


# surjections onto the chaotic category on two objects, whose base has a
# non-identity isomorphism (the finding of ROADMAP item 8)
ISO_BASES = {"iso base 011": [0, 1, 1], "iso base 0011": [0, 0, 1, 1]}


def surjection(name):
    """(instance, aux) from the generators.

    name is "nerve", "family", "tf2", an ``ISO_BASES`` key or "seed <n>".
    """
    if name in ISO_BASES:
        return wg.generate_from_surjection(fc.chaotic(2), ISO_BASES[name])
    if name == "nerve":
        return wg.from_base_category(free_arrow())
    if name == "family":
        return wg.generate_from_surjection(free_arrow(), [0, 0, 1])
    if name == "tf2":
        return wg.generate_from_surjection(point(), [0, 0])
    return wg.generate_random_wg(int(name[len("seed "):]))


def double(name):
    """The named double category: "micro" or a name ``surjection`` takes."""
    if name == "tf2" or name in ISO_BASES:
        return surjection(name)[0]
    return cli.build_instance(name.replace("seed ", "wg"))


def builders(names, make=double):
    """{name: zero-argument builder}, in the given order, for parametrized corpora."""
    return {name: functools.partial(make, name) for name in names}


def seeds(numbers):
    return ["seed %d" % s for s in numbers]


def composable_pairs(site):
    """Every (g, f) of map numbers with g after f defined, f then g each in hom order."""
    cat = site.cat
    for f in range(cat.n_mor):
        for g in range(cat.n_mor):
            if cat.src[g] == cat.tgt[f]:
                yield g, f


def collapse_map(family, nerve):
    """The double map from a surjection instance onto the nerve of its base.

    family and nerve are (instance, aux) pairs as ``surjection`` returns
    them; each point goes to its image under the assignment, each arrow
    (s, b, s2) to (t(s), b, t(s2)).
    """
    x, aux = family
    y, yaux = nerve
    t = aux["assignment"]
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
