"""pi* and the rebasing hand their own data to the law check: checks against the closure path.

``pi_star`` and ``discretize_fair`` pass the pair chains and composition
functors they already hold to ``fair2._assemble``, which re-checks only the
laws those can still break.  They used to wrap that data in compose
callables and run it through the whole of ``from_presentation``, which
enumerated the pair chains again and re-checked every level and map.  That
path is kept here as the oracle, word for word and with its own law checks,
so that it shares no code with ``_assemble``: on every instance of the
corpus the two give the same presentation and the same window level sizes,
or raise the same message.

The closure path also keeps the record of the retired fair "retraction"
strategy, which took the generic minimal-identity retraction
(``fincat.retraction_pseudo_inverse``) of each pair embedding as its
section.  Rebuilt here from public pieces, it gives what the library's
cleavage rebasing gives when the points are discrete and raises otherwise:
on the corpus with the messages the library gave, and on a sweep of 68
instances.
"""

import collections

import pytest

from wgfair import anchored as an
from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc

import corpus

NAMES = ["nerve", "family", "tf2", *corpus.seeds([4, 5, 6]), *corpus.ISO_BASES]
STRATEGIES = ["cleavage", "retraction"]


def reference_from_presentation(points, arrows, units, src, tgt, value, as_arrow,
                                compose_arrow_obj, compose_arrow_mor,
                                compose_unit_obj, compose_unit_mor):
    """Every check on generating data, the compose callables' pair chains built here."""
    for name, level in (("points", points), ("arrows", arrows), ("units", units)):
        an.raise_first("the %s are not a category: " % name, fc.validate_category, level)
    an.check_maps((("source", src, arrows, points), ("target", tgt, arrows, points),
                   ("value", value, units, points), ("unit", as_arrow, units, arrows)))
    for name, anchor in (("start", src), ("end", tgt)):
        if fc.compose_functors(anchor, as_arrow) != value:
            raise ValueError("unit arrows do not %s at their point" % name)

    pair_arrows, comp_arrows = an.compose_pairs(
        arrows, tgt, src, compose_arrow_obj, compose_arrow_mor, "")
    pair_units, comp_units = an.compose_pairs(
        units, value, value, compose_unit_obj, compose_unit_mor, "unit ")
    pr = pair_arrows.projections
    if fc.compose_functors(src, comp_arrows) != fc.compose_functors(src, pr[0]):
        raise ValueError("composition does not start where the first factor starts")
    if fc.compose_functors(tgt, comp_arrows) != fc.compose_functors(tgt, pr[1]):
        raise ValueError("composition does not end where the second factor ends")
    pru = pair_units.projections
    if fc.compose_functors(value, comp_units) != fc.compose_functors(value, pru[0]):
        raise ValueError("unit composition does not stay over its point")

    an.check_associative(pair_arrows, comp_arrows, "")
    an.check_associative(pair_units, comp_units, "unit ")
    for lab, pid, uid, cu, ca in (
            (pair_units.obj_label, pair_arrows.obj_id, as_arrow.obj,
             comp_units.obj, comp_arrows.obj),
            (pair_units.mor_label, pair_arrows.mor_id, as_arrow.mor,
             comp_units.mor, comp_arrows.mor)):
        for i, t in enumerate(lab):
            if uid(cu(i)) != ca(pid[(uid(t[0]), uid(t[1]))]):
                raise ValueError("unit embedding is not a semi-functor at"
                                 " pair %r" % (t,))
    return f2.FairPresentation(points, arrows, units, src, tgt, value, as_arrow,
                               pair_arrows, comp_arrows, pair_units, comp_units)


def reference_pi_star(x):
    """pi* through compose callables: arrows through x's pairs, units keep the first."""
    p = reference_from_presentation(
        x.x0, x.x1, x.x0, x.d1, x.d0, fc.identity_functor(x.x0), x.s0,
        lambda f, g: x.comp.obj(x.pairs.obj_id[(f, g)]),
        lambda m, n: x.comp.mor(x.pairs.mor_id[(m, n)]),
        lambda w1, w2: w1, lambda m, n: m)
    return f2.build_fair(p)


def cleavage_sections(d):
    """The library's pair chains and sections, [(hat, nu)] for arrows and units."""
    retr = f2.pair_retractions(d)
    return [(retr.arrow_pairs, retr.nu_arrows), (retr.unit_pairs, retr.nu_units)]


def retraction_sections(d):
    """The retired strategy's: the minimal-identity retraction of each class-chain embedding."""
    return [(hat, fc.retraction_pseudo_inverse(muhat).backward)
            for hat, muhat in (f2.class_chain(d, ds.parse_ordinal(shape))
                               for shape in ("o-o-o", "o=o=o"))]


SECTIONS = {"cleavage": cleavage_sections, "retraction": retraction_sections}


def reference_discretize_fair(d, strategy):
    """The rebasing through compose callables that read each pair through nu."""
    p = d.p
    disc = d.discretization()
    (arrow_pairs, nu_arrows), (unit_pairs, nu_units) = SECTIONS[strategy](d)
    gamma = disc.quotient

    def rebased(pairs, nu, comp):
        """(obj, mor): the composite of a class-composable pair, through nu."""
        return (lambda a, b: comp.obj(nu.obj(pairs.obj_id[(a, b)])),
                lambda m, n: comp.mor(nu.mor(pairs.mor_id[(m, n)])))

    out = reference_from_presentation(
        disc.discrete, p.arrows, p.units,
        fc.compose_functors(gamma, p.src), fc.compose_functors(gamma, p.tgt),
        fc.compose_functors(gamma, p.value), p.as_arrow,
        *rebased(arrow_pairs, nu_arrows, p.comp_arrows),
        *rebased(unit_pairs, nu_units, p.comp_units))
    return f2.build_fair(out)


def outcome(make):
    """The diagram make() returns, field by field, or the message it raises."""
    try:
        d = make()
    except ValueError as err:
        return {"raised": str(err)}
    p = d.p
    out = {name: getattr(p, name) for name in (
        "points", "arrows", "units", "src", "tgt", "value", "as_arrow",
        "comp_arrows", "comp_units")}
    for name in ("pair_arrows", "pair_units"):
        chain = getattr(p, name)
        out[name] = (chain.obj_label, chain.mor_label, chain.obj_id, chain.mor_id)
    out["level sizes"] = [(s.text(), d.level(s).n_obj, d.level(s).n_mor)
                          for s in ds.window_objects()]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_pi_star_assembles_what_the_closure_path_assembles(name):
    x = corpus.double(name)
    assert outcome(lambda: f2.pi_star(x)) == outcome(lambda: reference_pi_star(x))


# what the retired "retraction" strategy raised on the corpus instances whose
# points are not discrete; on the others it gave the cleavage rebasing
RETIRED = {name: "composition is not associative at triple %r" % (triple,) for name, triple in (
    ("family", (0, 3, 1)), ("tf2", (0, 2, 1)), ("seed 4", (0, 2, 1)), ("seed 5", (1, 6, 5)),
    ("seed 6", (2, 6, 5)), ("iso base 011", (1, 6, 2)), ("iso base 0011", (0, 4, 1)))}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", NAMES)
def test_rebasing_assembles_what_the_closure_path_assembles(name, strategy):
    # the retired strategy only ever matched the cleavage rebasing or raised
    x = corpus.double(name)
    expected = outcome(lambda: f2.discretize_fair(f2.pi_star(x)))
    if strategy == "retraction" and name in RETIRED:
        expected = {"raised": RETIRED[name]}
    assert outcome(lambda: reference_discretize_fair(reference_pi_star(x), strategy)) == expected


def sweep():
    """(name, fair diagram): pi* of 65 doubles, then 3 categories as fair structures."""
    for name in ["nerve", "family", "tf2", *corpus.seeds(range(60)), *corpus.ISO_BASES]:
        yield name, f2.pi_star(corpus.double(name))
    for name, base in (("free arrow", corpus.free_arrow()), ("Z/3", corpus.cyclic3()),
                       ("discrete(1)", fc.discrete(1))):
        yield "category " + name, f2.fair_from_category(base)


def test_the_retired_retraction_rebasing_is_the_cleavage_one_or_raises():
    kinds = collections.Counter()
    for name, d in sweep():
        points = d.p.points
        discrete = points.n_mor == points.n_obj
        got = outcome(lambda: reference_discretize_fair(d, "retraction"))
        if discrete:
            assert got == outcome(lambda: f2.discretize_fair(d)), name
        else:
            assert got["raised"].startswith("composition is not associative at triple"), name
        kinds[discrete] += 1
    assert kinds == {True: 24, False: 44}
