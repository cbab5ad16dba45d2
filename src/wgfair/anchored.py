"""Arrows anchored at points: the core both models of weak 2-categories share.

A weakly globular double category and a fair structure carry the same
data: points, arrows, source and target functors from arrows to points,
the strict chain of composable pairs and its composition functor.  A
``FairPresentation`` has exactly the attributes of ``Anchored``; a
``WGDouble`` maps x0, x1, d1, d0, pairs, comp onto points, arrows, src,
tgt, pair_arrows, comp_arrows.  The units, which only ``pi1`` reads, are
s0 on the double side and value with as_arrow on the fair side.

The pieces below exist once.  The two sides differ only in where the
identity classes of the fundamental category come from (the unit pairs
passed to ``pi1``) and in where a transport moves the end of an arrow
(the ``moved_end`` passed to ``transport_table``); the walks take a
per-side ``step``.

The law-checked assembly both builders run lives here too: ``raise_first``
for the levels' category laws, ``check_maps`` for the anchoring functors,
``compose_pairs`` for the strict pair chain and its composition,
``check_associative`` over the pairs joined on their middle entry, so no
builder materializes the composable triples.
Weak globularity goes through ``segal_map``, maps through ``map_problems``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import fincat as fc


class Anchored(NamedTuple):
    points: fc.FinCat
    arrows: fc.FinCat
    src: fc.FunctorMap
    tgt: fc.FunctorMap
    pair_arrows: fc.FiberChain
    comp_arrows: fc.FunctorMap


def only(items):
    if len(items) != 1:
        raise ValueError("expected exactly one item, found %r" % (list(items),))
    return items[0]


# ---------------------------------------------------------------------------
# Assembly with law checks


def raise_first(prefix, check, arg):
    """ValueError: prefix and the first problem check(arg) lists or raises as ValueError."""
    try:
        bad = check(arg)
    except ValueError as err:
        bad = [str(err)]
    if bad:
        raise ValueError(prefix + bad[0])


def not_equivalence(what, fun):
    """The line "<what> is not an equivalence (...)" with fun's flags; None when it is one."""
    flags = fc.equivalence_flags(fun)
    if not flags["is_equivalence"]:
        return ("%s is not an equivalence (fully_faithful=%s, essentially_surjective=%s)"
                % (what, flags["fully_faithful"], flags["essentially_surjective"]))


def check_maps(maps):
    """ValueError naming the first (name, functor, source, target) that is not a functor between them."""
    for name, fun, source, target in maps:
        if fun.source != source or fun.target != target:
            raise ValueError("%s map has wrong endpoints" % name)
        raise_first("%s map is not a functor: " % name, fc.validate_functor, fun)


def compose_pairs(level, end, start, compose_obj, compose_mor, tag):
    """(chain of pairs (f, g) with end(f) == start(g), composition functor onto level).

    compose_obj / compose_mor give the composite of a pair in diagram order;
    one that is not a functor raises ValueError, its message prefixed by tag.
    """
    pairs = fc.chain_fiber_product([level, level], [end], [start])
    comp = fc.FunctorMap(pairs.cat, level,
                         [compose_obj(*t) for t in pairs.obj_label],
                         [compose_mor(*t) for t in pairs.mor_label])
    raise_first("%scomposition is not functorial: " % tag, fc.validate_functor, comp)
    return pairs, comp


def check_associative(pairs, comp, tag):
    """ValueError at the first triple, objects before morphisms, where comp does not associate.

    The triples are the pairs joined on their middle entry: (f, g) in chain
    order with each (g, h), h ascending, which is the strict triples' order.
    """
    for labels, pid, c in ((pairs.obj_label, pairs.obj_id, comp.obj_map),
                           (pairs.mor_label, pairs.mor_id, comp.mor_map)):
        after = {}
        for g, h in labels:
            after.setdefault(g, []).append(h)
        for t in ((f, g, h) for f, g in labels for h in after.get(g, ())):
            f, g, h = t
            if c[pid[(c[pid[(f, g)]], h)]] != c[pid[(f, c[pid[(g, h)]])]]:
                raise ValueError("%scomposition is not associative at triple %r" % (tag, t))


def segal_map(strict, ends, starts):
    """(hat, muhat): the strict chain's tuples inside those composable over the point classes.

    hat matches strict's factors by ends[i] and starts[i], the anchors
    already composed with the quotient onto the classes; muhat keeps each
    tuple's label, so it is injective on objects.
    """
    hat = fc.chain_fiber_product([pr.target for pr in strict.projections], ends, starts)
    return hat, fc.mediating_functor(hat, strict.projections)


# ---------------------------------------------------------------------------
# Maps: their squares, the fundamental category, hom fibers, 2-equivalences


def check_components(source, target, components):
    """ValueError unless each (tag, functor, level) runs between that level of source and target."""
    for tag, fun, level in components:
        if fun.source != getattr(source, level) or fun.target != getattr(target, level):
            raise ValueError("the %s component does not run between the ends' %s" % (tag, level))


def map_problems(components, squares, compositions):
    """Violation lines of a map: its (tag, functor) components, then its squares.

    squares (name, (a, b), (c, d)) ask a . b == c . d; compositions (tag,
    names, chain_x, chain_y, comp_x, comp_y, on) ask comp_y . (on x on) ==
    on . comp_x, unless a named square failed and pairs need not map to pairs.
    A component whose maps do not fit its source raises ValueError naming it.
    """
    problems = []
    for tag, fun in components:
        fc._check_functor_shape(fun, tag)
        bad = fc.validate_functor(fun)
        if bad:
            problems.append("%s component is not a functor: %s" % (tag, bad[0]))
    failed = [name for name, (a, b), (c, d) in squares
              if fc.compose_functors(a, b) != fc.compose_functors(c, d)]
    problems.extend("%s square does not commute" % name for name in failed)
    for tag, names, chx, chy, cx, cy, on in compositions:
        if not set(failed).isdisjoint(names):
            continue
        two = fc.chain_map(chx, chy, [on, on])
        if fc.compose_functors(cy, two) != fc.compose_functors(on, cx):
            problems.append("%scomposition square does not commute" % tag)
    return problems


@dataclass
class Pi1:
    cat: fc.FinCat
    obj_classes: list
    obj_class_of: tuple
    arrow_classes: list
    arrow_class_of: tuple


def pi1(a, units):
    """The fields of ``Pi1``, descended to iso classes (see ``pi1_double``).

    units lists (point, arrow) pairs, the arrow standing for the identity
    at the point; units that disagree on a class raise ValueError.  Once
    every composable class pair has a strict representative, the pair
    classes meet them all, since isomorphic pairs share component classes;
    so the pairs level descends exactly when no two pair classes meet one.
    """
    obj_classes, ocof = fc.iso_classes(a.points)
    arrow_classes, acof = fc.iso_classes(a.arrows)
    src = [ocof[a.src.obj(cls[0])] for cls in arrow_classes]
    tgt = [ocof[a.tgt.obj(cls[0])] for cls in arrow_classes]
    ident = [None] * len(obj_classes)
    for o, f in units:
        c, u = ocof[o], acof[f]
        if ident[c] is None:
            ident[c] = u
        elif ident[c] != u:
            raise ValueError("unit classes disagree at point class %d" % c)
    for c, u in enumerate(ident):
        if u is None:
            raise ValueError("point class %d has no unit" % c)
    table = {}
    for i, (f, g) in enumerate(a.pair_arrows.obj_label):
        key = (acof[g], acof[f])
        val = acof[a.comp_arrows.obj(i)]
        if table.setdefault(key, val) != val:
            raise ValueError("descended composition is not single-valued at"
                             " classes (%d, %d)" % key)
    composable = [(mg, mf) for mg in range(len(arrow_classes))
                  for mf in range(len(arrow_classes)) if tgt[mf] == src[mg]]
    for key in composable:
        if key not in table:
            raise ValueError("no composable representatives for classes"
                             " (%d, %d)" % key)
    pair_classes, _ = fc.iso_classes(a.pair_arrows.cat)
    seen = set()
    for cls in pair_classes:
        f, g = a.pair_arrows.obj_label[cls[0]]
        key = (acof[f], acof[g])
        if key in seen:
            raise ValueError("pairs level does not descend to the fiber product"
                             " of classes at %r" % (key,))
        seen.add(key)
    cat = fc.FinCat(len(obj_classes), src, tgt, ident, table)
    raise_first("descended category law fails: ", fc.validate_category, cat)
    return cat, obj_classes, ocof, arrow_classes, acof


def pi1_map(p_src, p_tgt, on_points, on_arrows):
    """Functor induced on fundamental categories by a map of anchored data.

    A component whose maps do not fit its source raises ValueError.
    """
    fc._check_functor_shape(on_points, "points")
    fc._check_functor_shape(on_arrows, "arrows")
    fun = fc.FunctorMap(
        p_src.cat, p_tgt.cat,
        [p_tgt.obj_class_of[on_points.obj(cls[0])] for cls in p_src.obj_classes],
        [p_tgt.arrow_class_of[on_arrows.obj(cls[0])] for cls in p_src.arrow_classes])
    raise_first("induced map is not functorial: ", fc.validate_functor, fun)
    return fun


def hom_fiber(a, i, j):
    """(full subcategory of the arrows from point class i to j, inclusion).

    Point classes are ``fincat.iso_classes(a.points)``, numbered as in
    ``Pi1.obj_class_of``; a class outside them raises ValueError.
    """
    classes, class_of = fc.iso_classes(a.points)
    count = len(classes)
    for c in (i, j):
        if not isinstance(c, int) or not 0 <= c < count:
            raise ValueError("point class %r is not one of the %d point classes" % (c, count))
    objs = [f for f in range(a.arrows.n_obj)
            if class_of[a.src.obj(f)] == i and class_of[a.tgt.obj(f)] == j]
    return fc.full_subcategory(a.arrows, objs)


def is_2equivalence(a, b, p_src, p_tgt, on_points, on_arrows):
    """The verdicts of ``is_2equivalence_double`` for a map of anchored data."""
    pf = pi1_map(p_src, p_tgt, on_points, on_arrows)
    pflags = fc.equivalence_flags(pf)
    fibers_ok = True
    for i in range(len(p_src.obj_classes)):
        for j in range(len(p_src.obj_classes)):
            sub_x, incl_x = hom_fiber(a, i, j)
            if sub_x.n_obj == 0:
                continue
            sub_y, incl_y = hom_fiber(b, pf.obj(i), pf.obj(j))
            maps = []
            for what, incl, into, on in (
                    ("arrow", incl_x.obj_map, incl_y.obj_map, on_arrows.obj_map),
                    ("cell", incl_x.mor_map, incl_y.mor_map, on_arrows.mor_map)):
                pos = {e: k for k, e in enumerate(into)}
                for e in incl:
                    if on[e] not in pos:
                        raise ValueError("%s %d over classes (%d, %d) is sent to %d, outside"
                                         " hom fiber (%d, %d)"
                                         % (what, e, i, j, on[e], pf.obj(i), pf.obj(j)))
                maps.append([pos[on[e]] for e in incl])
            fibers_ok = fc.is_equivalence(fc.FunctorMap(sub_x, sub_y, *maps)) and fibers_ok
    surj = set(pf.obj_map) == set(range(p_tgt.cat.n_obj))
    return {
        "hom_fiber_equivalences": fibers_ok,
        "pi1_equivalence": pflags["is_equivalence"],
        "pi1_surjective_on_objects": surj,
        "is_2equivalence": fibers_ok and pflags["is_equivalence"],
        "is_2equivalence_relaxed": fibers_ok and surj,
    }


# ---------------------------------------------------------------------------
# Transports along point isomorphisms, walks and sections


def transport_table(points, level, start, end, moved_end, message):
    """Transports of every object f of level along each point iso phi : xo -> start(f).

    The xo are start(f)'s class among the points' kept iso classes
    (``fincat.discrete_iso_classes``).  The entry at (f, phi) is the least
    (g, cell): g from xo to moved_end(f, xo), the cell invertible onto f over
    phi and the iso between the ends.  A missing one raises ValueError with
    message % (f, phi).
    """
    classes, class_of = fc.discrete_iso_classes(points)
    src, tgt, table = level.src, level.tgt, {}
    for f in range(level.n_obj):
        sf = start.obj(f)
        for xo in classes[class_of[sf]]:
            phi = only(points.hom(xo, sf))
            if xo == sf:
                table[(f, phi)] = (f, level.identity[f])
                continue
            te = moved_end(f, xo)
            psi = only(points.hom(te, end.obj(f)))
            best = min(((src[lam], lam) for lam in range(level.n_mor)
                        if tgt[lam] == f and level.is_iso(lam)
                        and start.obj(src[lam]) == xo and end.obj(src[lam]) == te
                        and start.mor(lam) == phi and end.mor(lam) == psi), default=None)
            if best is None:
                raise ValueError(message % (f, phi))
            table[(f, phi)] = best
    return table


def walk_section(level, end, hat, strict, step):
    """(section of strict -> hat, counit components) by walking tuples.

    The first component is the anchor; step(a, point) moves each later
    component a to start at point, the end of the one before, and returns
    (object, invertible cell onto a).  Morphisms are conjugated by the cells.

    Precondition: level is a category (``from_generators`` and
    ``from_presentation`` check their levels).  Each cell of the walks is
    inverted once, and an identity cell is not composed with, which the
    identity laws make exact.
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
    ident = set(level.identity)
    inverse = {lam: level.inverse(lam) for _, lams in walks for lam in lams if lam not in ident}
    mor_map, compose, mor_id = [], level.compose, strict.mor_id
    for mt, s, t in zip(hat.mor_label, hat.cat.src, hat.cat.tgt):
        parts = []
        for m, lam_s, lam_t in zip(mt, walks[s][1], walks[t][1]):
            if lam_s not in ident:
                m = compose(m, lam_s)
            if lam_t not in ident:
                m = compose(inverse[lam_t], m)
            parts.append(m)
        mor_map.append(mor_id[tuple(parts)])
    nu = fc.FunctorMap(hat.cat, strict.cat, obj_map, mor_map)
    return nu, [hat.mor_id[lams] for _, lams in walks]


def sections(strategy, muhats, walks):
    """(nu, counit muhat . nu => Id) per embedding muhat, with nu . muhat = Id.

    "cleavage" takes (nu, counit components) from walks(), "retraction" the
    generic minimal-identity retraction.
    """
    if strategy == "retraction":
        out = [(r.backward, r.counit) for r in map(fc.retraction_pseudo_inverse, muhats)]
    elif strategy == "cleavage":
        out = [(nu, fc.NatTransf(fc.compose_functors(mu, nu),
                                 fc.identity_functor(mu.target), comps))
               for mu, (nu, comps) in zip(muhats, walks())]
    else:
        raise ValueError("unknown strategy %r" % (strategy,))
    check_sections(muhats, [nu for nu, _ in out], strategy)
    return out


def check_sections(muhats, nus, strategy):
    """Raise ValueError unless each nu . muhat is the identity on the nose."""
    for mu, nu in zip(muhats, nus):
        if fc.compose_functors(nu, mu) != fc.identity_functor(mu.source):
            raise ValueError("section law fails for the %s strategy" % strategy)
