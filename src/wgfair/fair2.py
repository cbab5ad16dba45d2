"""Fair structures: semi-category data for arrows and weak units over points.

A presentation keeps a category of points, a semi-category of arrows with
source and target anchors, and a semi-category of weak units embedded into
the arrows.  No unit laws are imposed on either composition; associativity
is strict and checked by enumeration.  Evaluation turns a presentation into
levels indexed by colored ordinals: plain edges read arrows, colored edges
read units, and the contravariant action folds paths using the two
compositions, pushing units into arrows where a plain edge crosses a
colored run.  Tuples read left to right in diagram order, matching the
double-category module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import anchored as an
from . import deltasite as ds
from . import fincat as fc


class FairPresentation:
    """Points, arrows and units with their anchors and compositions.

    src and tgt anchor arrows at points; value anchors units, and as_arrow
    embeds units into arrows over their value on both sides.  pair_arrows
    and pair_units are the strict composable-pair categories the two
    composition functors act on.
    """

    def __init__(self, points, arrows, units, src, tgt, value, as_arrow,
                 pair_arrows, comp_arrows, pair_units, comp_units):
        self.points = points
        self.arrows = arrows
        self.units = units
        self.src = src
        self.tgt = tgt
        self.value = value
        self.as_arrow = as_arrow
        self.pair_arrows = pair_arrows
        self.comp_arrows = comp_arrows
        self.pair_units = pair_units
        self.comp_units = comp_units


def from_presentation(points, arrows, units, src, tgt, value, as_arrow,
                      compose_arrow_obj, compose_arrow_mor,
                      compose_unit_obj, compose_unit_mor):
    """Assemble a fair presentation from generating data, checking laws.

    The compose callables give the composite of a strictly composable pair
    in diagram order, objects and morphisms separately.  There are no unit
    laws to check; associativity, anchor compatibility and the unit
    embedding being a semi-functor all raise ValueError with a witness.
    """
    for name, fun, fsrc, ftgt in (("source", src, arrows, points),
                                  ("target", tgt, arrows, points),
                                  ("value", value, units, points),
                                  ("unit", as_arrow, units, arrows)):
        if fun.source != fsrc or fun.target != ftgt:
            raise ValueError("%s map has wrong endpoints" % name)
        bad = fc.validate_functor(fun)
        if bad:
            raise ValueError("%s map is not a functor: %s" % (name, bad[0]))
    for name, anchor in (("start", src), ("end", tgt)):
        if fc.compose_functors(anchor, as_arrow) != value:
            raise ValueError("unit arrows do not %s at their point" % name)

    pair_arrows = fc.chain_fiber_product([arrows, arrows], [tgt], [src])
    comp_arrows = fc.FunctorMap(
        pair_arrows.cat, arrows,
        [compose_arrow_obj(*t) for t in pair_arrows.obj_label],
        [compose_arrow_mor(*t) for t in pair_arrows.mor_label])
    pair_units = fc.chain_fiber_product([units, units], [value], [value])
    comp_units = fc.FunctorMap(
        pair_units.cat, units,
        [compose_unit_obj(*t) for t in pair_units.obj_label],
        [compose_unit_mor(*t) for t in pair_units.mor_label])
    for tag, comp in (("", comp_arrows), ("unit ", comp_units)):
        bad = fc.validate_functor(comp)
        if bad:
            raise ValueError("%scomposition is not functorial: %s" % (tag, bad[0]))
    pr = pair_arrows.projections
    if fc.compose_functors(src, comp_arrows) != fc.compose_functors(src, pr[0]):
        raise ValueError("composition does not start where the first factor starts")
    if fc.compose_functors(tgt, comp_arrows) != fc.compose_functors(tgt, pr[1]):
        raise ValueError("composition does not end where the second factor ends")
    pru = pair_units.projections
    if fc.compose_functors(value, comp_units) != fc.compose_functors(value, pru[0]):
        raise ValueError("unit composition does not stay over its point")

    for tag, fac, chain, comp in (("", arrows, pair_arrows, comp_arrows),
                                  ("unit ", units, pair_units, comp_units)):
        anchors = (tgt, src) if tag == "" else (value, value)
        tri = fc.chain_fiber_product([fac] * 3, [anchors[0]] * 2, [anchors[1]] * 2)
        for lab, pid, cid in ((tri.obj_label, chain.obj_id, comp.obj),
                              (tri.mor_label, chain.mor_id, comp.mor)):
            for t in lab:
                f, g, h = t
                fg, gh = cid(pid[(f, g)]), cid(pid[(g, h)])
                if cid(pid[(fg, h)]) != cid(pid[(f, gh)]):
                    raise ValueError("%scomposition is not associative at"
                                     " triple %r" % (tag, t))
    for lab, pid, uid, cu, ca in (
            (pair_units.obj_label, pair_arrows.obj_id, as_arrow.obj,
             comp_units.obj, comp_arrows.obj),
            (pair_units.mor_label, pair_arrows.mor_id, as_arrow.mor,
             comp_units.mor, comp_arrows.mor)):
        for i, t in enumerate(lab):
            if uid(cu(i)) != ca(pid[(uid(t[0]), uid(t[1]))]):
                raise ValueError("unit embedding is not a semi-functor at"
                                 " pair %r" % (t,))
    return FairPresentation(points, arrows, units, src, tgt, value, as_arrow,
                            pair_arrows, comp_arrows, pair_units, comp_units)


# ---------------------------------------------------------------------------
# Evaluation on the colored ordinal window


def _fold(ids, comp, entries):
    acc = entries[0]
    for e in entries[1:]:
        acc = comp[ids[(acc, e)]]
    return acc


class FairDiagram:
    """A presentation evaluated on the truncation window, caches included.

    Levels are built edgewise, so the Segal maps are identities by
    construction; the action of a colored map against the diagram direction
    is a functor between levels.
    """

    def __init__(self, p, window=None):
        self.p = p
        self.window = window if window is not None else ds.TruncationWindow()
        self._shapes = None
        self._chains = {}
        self._actions = {}
        self._disc = None

    def shapes(self):
        if self._shapes is None:
            self._shapes = ds.window_objects(self.window)
        return self._shapes

    def discretization(self):
        if self._disc is None:
            self._disc = fc.discretize(self.p.points)
        return self._disc

    def edge_cats(self, shape):
        return [self.p.units if i in shape.colored else self.p.arrows
                for i in range(shape.dots - 1)]

    def left_anchor(self, shape, i):
        return self.p.value if i in shape.colored else self.p.src

    def right_anchor(self, shape, i):
        return self.p.value if i in shape.colored else self.p.tgt

    def chain(self, shape):
        """Edgewise fiber product of a shape with at least one edge."""
        if shape not in self._chains:
            cats, n = self.edge_cats(shape), shape.dots - 1
            self._chains[shape] = fc.single_chain(cats[0]) if n == 1 else \
                fc.chain_fiber_product(
                    cats, [self.right_anchor(shape, i) for i in range(n - 1)],
                    [self.left_anchor(shape, i + 1) for i in range(n - 1)])
        return self._chains[shape]

    def level(self, shape):
        return self.p.points if shape.dots == 1 else self.chain(shape).cat

    def action(self, fat):
        """Functor induced on levels, against the direction of the map."""
        if fat not in self._actions:
            self._actions[fat] = self._build_action(fat)
        return self._actions[fat]

    def _build_action(self, fat):
        src, tgt, p = fat.src, fat.tgt, self.p
        if tgt.dots == 1:
            return fc.identity_functor(p.points)
        strings = self.chain(tgt)
        if src.dots == 1:
            # a dot is read off the edge leaving it, the last dot off the
            # edge entering it
            d = fat.dotmap[0]
            edge = min(d, tgt.dots - 2)
            anchor = self.left_anchor(tgt, d) if d == edge else self.right_anchor(tgt, edge)
            return fc.FunctorMap(strings.cat, p.points, *[
                [read[t[edge]] for t in labels] for labels, read in
                ((strings.obj_label, anchor.obj_map), (strings.mor_label, anchor.mor_map))])
        tuples = self.chain(src)
        # per source edge, the target path it covers cut into plain entries
        # and colored runs (a run is a unit pushed into the arrows); a
        # colored edge only ever covers colored edges and folds units alone
        plan = []
        for j in range(src.dots - 1):
            lo, hi = fat.dotmap[j], fat.dotmap[j + 1]
            pieces = []
            for i in range(lo, hi):
                if i in tgt.colored and pieces and pieces[-1][2]:
                    pieces[-1] = (pieces[-1][0], i + 1, True)
                else:
                    pieces.append((i, i + 1, i in tgt.colored))
            plan.append((j in src.colored, pieces))
        maps = []
        for labels, ids, upair, ucomp, apair, acomp, unit in (
                (strings.obj_label, tuples.obj_id, p.pair_units.obj_id, p.comp_units.obj_map,
                 p.pair_arrows.obj_id, p.comp_arrows.obj_map, p.as_arrow.obj_map),
                (strings.mor_label, tuples.mor_id, p.pair_units.mor_id, p.comp_units.mor_map,
                 p.pair_arrows.mor_id, p.comp_arrows.mor_map, p.as_arrow.mor_map)):
            out = []
            for t in labels:
                parts = []
                for units_only, pieces in plan:
                    if units_only:
                        a, b, _ = pieces[0]
                        parts.append(_fold(upair, ucomp, t[a:b]))
                        continue
                    row = []
                    for a, b, run in pieces:
                        row.append(unit[_fold(upair, ucomp, t[a:b])] if run else t[a])
                    parts.append(_fold(apair, acomp, row))
                out.append(ids[tuple(parts)])
            maps.append(out)
        return fc.FunctorMap(strings.cat, tuples.cat, *maps)


def build_fair(p, window=None):
    """Evaluate a presentation and verify functoriality on the window.

    Every composable pair of window maps is checked; a failure names the
    pair.  With the presentation laws already enforced this is a defense
    line, not an expected exit.
    """
    d = FairDiagram(p, window)
    shapes = d.shapes()
    homs = {}
    for a in shapes:
        for b in shapes:
            homs[(a, b)] = ds.enumerate_hom(a, b)
    for a in shapes:
        for b in shapes:
            for f in homs[(a, b)]:
                af = d.action(f)
                for c in shapes:
                    for g in homs[(b, c)]:
                        if d.action(ds.compose_fat(g, f)) != \
                                fc.compose_functors(af, d.action(g)):
                            raise ValueError(
                                "evaluation is not functorial at the pair"
                                " (%r, %r)" % (f, g))
    return d


def pi_star(x):
    """The comparison functor pi* on a weakly globular double category.

    Points read off level zero and arrows off level one; the units are the
    vertical objects again, sitting at themselves and on their identity
    arrows s0.  Arrows compose through the strict pair level, units by
    keeping the first of a pair.  Returns the evaluated fair diagram.
    """
    p = from_presentation(
        x.x0, x.x1, x.x0, x.d1, x.d0, fc.identity_functor(x.x0), x.s0,
        lambda f, g: x.comp.obj(x.pairs.obj_id[(f, g)]),
        lambda m, n: x.comp.mor(x.pairs.mor_id[(m, n)]),
        lambda w1, w2: w1, lambda m, n: m)
    return build_fair(p)


# ---------------------------------------------------------------------------
# The fair axioms over discrete points


def unit_generator_maps():
    """The window maps whose actions are the weak unit comparisons."""
    o = ds.parse_ordinal("o")
    oo = ds.parse_ordinal("o-o")
    uu = ds.parse_ordinal("o=o")
    return [
        ("left unit anchor", ds.FatMap(o, uu, (0,))),
        ("right unit anchor", ds.FatMap(o, uu, (1,))),
        ("unit absorbed on the left", ds.FatMap(oo, ds.parse_ordinal("o=o-o"), (0, 2))),
        ("unit absorbed on the right", ds.FatMap(oo, ds.parse_ordinal("o-o=o"), (0, 2))),
        ("composition of unit pairs", ds.FatMap(uu, ds.parse_ordinal("o=o=o"), (0, 2))),
    ]


def vertical_window_maps(window):
    """Window maps that collapse to an identity, identities excluded."""
    out = []
    shapes = ds.window_objects(window)
    for a in shapes:
        for b in shapes:
            for f in ds.enumerate_hom(a, b):
                c = ds.collapse(f)
                if c == ds.identity_simplex(c.src_rank) and \
                        f != ds.fat_identity(a):
                    out.append(f)
    return out


def validate_fair2(d):
    """Axioms of the discrete-points fair structure, one line per failure."""
    problems = []
    p = d.p
    if p.points.n_mor != p.points.n_obj:
        problems.append("points are not discrete")
    named = set()
    for name, fat in unit_generator_maps():
        named.add(fat)
        flags = fc.equivalence_flags(d.action(fat))
        if not flags["is_equivalence"]:
            problems.append(
                "the %s map is not an equivalence (fully_faithful=%s,"
                " essentially_surjective=%s)"
                % (name, flags["fully_faithful"], flags["essentially_surjective"]))
    # the five generators force every unit-inserting map to an equivalence;
    # sweeping them all keeps that consequence honest
    for fat in vertical_window_maps(d.window):
        if fat not in named and not fc.is_equivalence(d.action(fat)):
            problems.append("vertical map %r is not sent to an equivalence"
                            % (fat,))
    return problems


# ---------------------------------------------------------------------------
# The weakly globular variant


def class_chain(d, shape):
    """Edgewise fiber product over the point classes instead of the points."""
    gamma = d.discretization().quotient
    n = shape.dots - 1
    return fc.chain_fiber_product(
        d.edge_cats(shape),
        [fc.compose_functors(gamma, d.right_anchor(shape, i)) for i in range(n - 1)],
        [fc.compose_functors(gamma, d.left_anchor(shape, i + 1)) for i in range(n - 1)])


def induced_segal(d, shape):
    """Embedding of the strict level into the class-composable tuples."""
    return fc.mediating_functor(class_chain(d, shape), d.chain(shape).projections)


def validate_fairwg(d):
    """Axioms of the weakly globular fair structure, one line per failure."""
    problems = []
    flag, wit = fc.is_homotopically_discrete(d.p.points)
    if not flag:
        problems.append("axiom (a): points are not homotopically discrete"
                        " (witness morphism %d)" % wit)
        return problems
    # axiom (b) asks each level to be the edgewise fiber product of its
    # one-edge levels; the evaluation builds levels that way, so the Segal
    # maps are identities and there is nothing to enumerate
    for shape in d.shapes():
        if shape.dots < 3:
            continue
        flags = fc.equivalence_flags(induced_segal(d, shape))
        if not flags["is_equivalence"]:
            problems.append(
                "axiom (c): induced Segal map at %s is not an equivalence"
                " (fully_faithful=%s, essentially_surjective=%s)"
                % (shape.text(), flags["fully_faithful"],
                   flags["essentially_surjective"]))
    for name, fat in unit_generator_maps():
        if not fc.is_equivalence(d.action(fat)):
            problems.append("axiom (d): the %s map is not an equivalence" % name)
    return problems


# ---------------------------------------------------------------------------
# Fundamental category and hom fibers


class FairPi1(an.Pi1):
    """Fundamental category of a fair structure; obj_* are the point classes."""


def pi1_fair(d):
    """Fundamental category: iso classes levelwise, composition descended.

    Verifies on the way that composition descends single-valuedly, that the
    pairs level is the strict fiber product of classes, and that the units
    give well-defined identities; any failure raises ValueError rather than
    guessing.
    """
    p = d.p
    units = [(p.value.obj(w), p.as_arrow.obj(w)) for w in range(p.units.n_obj)]
    return FairPi1(*an.pi1(p, units))


def hom_fiber_fair(d, a, b):
    """Full subcategory of arrows from point class a to point class b.

    Returns (category, inclusion into the arrows).
    """
    return an.hom_fiber(d.p, a, b, fc.iso_classes(d.p.points)[1])


# ---------------------------------------------------------------------------
# Maps of fair structures


@dataclass
class FairMap:
    source: FairDiagram
    target: FairDiagram
    on_points: fc.FunctorMap
    on_arrows: fc.FunctorMap
    on_units: fc.FunctorMap


def validate_fair_map(fmap):
    """Componentwise functor squares, as a violation list."""
    problems = []
    x, y = fmap.source.p, fmap.target.p
    for fun, tag in ((fmap.on_points, "point"), (fmap.on_arrows, "arrow"),
                     (fmap.on_units, "unit")):
        bad = fc.validate_functor(fun)
        if bad:
            problems.append("%s component is not a functor: %s" % (tag, bad[0]))
    ends = [name for name, ax, ay, comp in (("source", x.src, y.src, fmap.on_arrows),
                                            ("target", x.tgt, y.tgt, fmap.on_arrows),
                                            ("value", x.value, y.value, fmap.on_units))
            if fc.compose_functors(ay, comp) != fc.compose_functors(fmap.on_points, ax)]
    problems.extend("%s square does not commute" % name for name in ends)
    if fc.compose_functors(fmap.on_arrows, x.as_arrow) != \
            fc.compose_functors(y.as_arrow, fmap.on_units):
        problems.append("unit embedding square does not commute")
    # composable pairs only map to composable pairs when both ends commute
    for tag, anchors, chx, chy, cx, cy, comp in (
            ("", {"source", "target"}, x.pair_arrows, y.pair_arrows, x.comp_arrows,
             y.comp_arrows, fmap.on_arrows),
            ("unit ", {"value"}, x.pair_units, y.pair_units, x.comp_units,
             y.comp_units, fmap.on_units)):
        if anchors.intersection(ends):
            continue
        legs = [fc.compose_functors(comp, pr) for pr in chx.projections]
        two = fc.mediating_functor(chy, legs)
        if fc.compose_functors(cy, two) != fc.compose_functors(comp, cx):
            problems.append("%scomposition square does not commute" % tag)
    return problems


def level_map_fair(fmap, shape):
    """The induced functor on the level of a colored ordinal."""
    n = shape.dots - 1
    if n == 0:
        return fmap.on_points
    comps = [fmap.on_units if i in shape.colored else fmap.on_arrows
             for i in range(n)]
    legs = [fc.compose_functors(comps[i], fmap.source.chain(shape).projections[i])
            for i in range(n)]
    return fc.mediating_functor(fmap.target.chain(shape), legs)


def identity_fair_map(d):
    return FairMap(d, d, fc.identity_functor(d.p.points),
                   fc.identity_functor(d.p.arrows),
                   fc.identity_functor(d.p.units))


def compose_fair_maps(g, f):
    if g.source is not f.target and g.source.p is not f.target.p:
        raise ValueError("fair maps are not composable")
    return FairMap(f.source, g.target,
                   fc.compose_functors(g.on_points, f.on_points),
                   fc.compose_functors(g.on_arrows, f.on_arrows),
                   fc.compose_functors(g.on_units, f.on_units))


def pi1_fair_map(fmap, p_src=None, p_tgt=None):
    """Functor induced on fundamental categories."""
    p_src = p_src if p_src is not None else pi1_fair(fmap.source)
    p_tgt = p_tgt if p_tgt is not None else pi1_fair(fmap.target)
    return an.pi1_map(p_src, p_tgt, fmap.on_points, fmap.on_arrows)


def is_2equivalence_fair(fmap):
    """Hom-fiber equivalences plus fundamental-category equivalence.

    Same shape of verdicts as the double-category version: the relaxed one
    only asks the fundamental map to be surjective on objects.
    """
    x, y = fmap.source, fmap.target
    return an.is_2equivalence(x.p, y.p, pi1_fair(x), pi1_fair(y),
                              fmap.on_points, fmap.on_arrows)


# ---------------------------------------------------------------------------
# Rebasing onto the point classes


class FairCleavage:
    """Chosen transports of arrows and units along point isomorphisms.

    arrows maps (arrow, iso into its source point) to a transported arrow
    with that source and an invertible connecting cell; units maps (unit,
    iso into its value) likewise inside the unit semi-category.  unit_of
    remembers the least preimage of each unit arrow.
    """

    def __init__(self, arrows, units, unit_of):
        self.arrows = arrows
        self.units = units
        self.unit_of = unit_of


def _dragged(section, class_of, xo, sf, t):
    # both endpoints of a transported arrow move: the target is carried by
    # the same class permutation that moves sf to xo (a pair of section
    # swaps), and stays put when it lives in a different class.  Fixing the
    # target instead leaves the rebased composition non-associative as soon
    # as a composite lands in the unit image.
    c = class_of[sf]
    if class_of[t] != c:
        return t
    sec = section.obj(c)
    for y in (sf, xo):
        if t == sec:
            t = y
        elif t == y:
            t = sec
    return t


def build_fair_cleavage(p):
    """Search lawful transports, least transported object and cell first.

    Raises ValueError when an arrow or unit has no transport along some
    point isomorphism; that is an honest obstruction of the instance, not
    a bug.
    """
    disc = fc.discretize(p.points)
    arrows = an.transport_table(
        disc, p.arrows, p.src, p.tgt, lambda f, xo: _dragged(
            disc.section, disc.quotient.obj_map, xo, p.src.obj(f), p.tgt.obj(f)),
        "no transport of arrow %d along point isomorphism %d")
    # a unit starts and ends at its value, so both ends move together
    units = an.transport_table(disc, p.units, p.value, p.value, lambda w, xo: xo,
                               "no transport of unit %d along point isomorphism %d")
    unit_of = {}
    for w in range(p.units.n_obj):
        unit_of.setdefault(p.as_arrow.obj(w), w)
    return FairCleavage(arrows, units, unit_of)


@dataclass
class FairRetractions:
    strategy: str
    arrow_pairs: fc.FiberChain
    muhat_arrows: fc.FunctorMap
    nu_arrows: fc.FunctorMap
    counit_arrows: fc.NatTransf
    unit_pairs: fc.FiberChain
    muhat_units: fc.FunctorMap
    nu_units: fc.FunctorMap
    counit_units: fc.NatTransf


def pair_retractions(d, strategy="cleavage", cleavage=None):
    """Chosen retractions of the pair embeddings over the point classes.

    Both the arrow pairs and the unit pairs get a section nu with
    nu . muhat the identity on the nose and an invertible counit
    muhat . nu => Id.  Strategy "cleavage" anchors the first component of a
    pair and transports the second to start exactly where the first ends; a
    unit arrow is transported inside the unit semi-category instead and
    re-embedded, which is what later makes the unit embedding survive the
    rebasing.  "retraction" is the generic minimal-identity retraction.
    """
    p = d.p
    shapes = [ds.parse_ordinal("o-o-o"), ds.parse_ordinal("o=o=o")]
    hat_a, hat_u = [class_chain(d, s) for s in shapes]
    # induced_segal would build each class chain a second time
    mu_a, mu_u = [fc.mediating_functor(hat, d.chain(s).projections)
                  for hat, s in zip((hat_a, hat_u), shapes)]

    def walks():
        cl = cleavage if cleavage is not None else build_fair_cleavage(p)

        def unit_step(w, anchor):
            return cl.units[(w, an.only(p.points.hom(anchor, p.value.obj(w))))]

        def arrow_step(a, anchor):
            w = cl.unit_of.get(a)
            if w is None:
                return cl.arrows[(a, an.only(p.points.hom(anchor, p.src.obj(a))))]
            w2, iot = unit_step(w, anchor)
            return p.as_arrow.obj(w2), p.as_arrow.mor(iot)

        return [an.walk_section(p.arrows, p.tgt, hat_a, d.chain(shapes[0]), arrow_step),
                an.walk_section(p.units, p.value, hat_u, d.chain(shapes[1]), unit_step)]

    (nu_a, ca), (nu_u, cu) = an.sections(strategy, [mu_a, mu_u], walks)
    return FairRetractions(strategy, hat_a, mu_a, nu_a, ca, hat_u, mu_u, nu_u, cu)


def discretize_fair(d, strategy="cleavage", cleavage=None):
    """Rebase a weakly globular fair structure onto its point classes.

    The arrow and unit levels stay what they were; only the anchors move to
    the class quotient and the compositions are re-based through the chosen
    pair retractions.  On an input whose points are already discrete the
    result is the input again.  The output is assembled through the full
    law checks, so a strategy whose retraction breaks associativity or the
    unit embedding surfaces as a ValueError, not as silent damage.
    """
    p = d.p
    disc = d.discretization()
    retr = pair_retractions(d, strategy, cleavage)
    gamma = disc.quotient

    # the rebased pair chains re-enumerate exactly the class-composable
    # tuples, so the labels below agree with the walked chains
    def comp_arrow_obj(f, g):
        return p.comp_arrows.obj(retr.nu_arrows.obj(retr.arrow_pairs.obj_id[(f, g)]))

    def comp_arrow_mor(m, n):
        return p.comp_arrows.mor(retr.nu_arrows.mor(retr.arrow_pairs.mor_id[(m, n)]))

    def comp_unit_obj(w1, w2):
        return p.comp_units.obj(retr.nu_units.obj(retr.unit_pairs.obj_id[(w1, w2)]))

    def comp_unit_mor(m, n):
        return p.comp_units.mor(retr.nu_units.mor(retr.unit_pairs.mor_id[(m, n)]))

    out = from_presentation(
        disc.discrete, p.arrows, p.units,
        fc.compose_functors(gamma, p.src), fc.compose_functors(gamma, p.tgt),
        fc.compose_functors(gamma, p.value), p.as_arrow,
        comp_arrow_obj, comp_arrow_mor, comp_unit_obj, comp_unit_mor)
    return build_fair(out, d.window)


# ---------------------------------------------------------------------------
# Generators


def fair_from_category(base):
    """A category as a fair structure: discrete levels, strict everything.

    Arrows are the morphisms of base with no cells between them, units are
    the objects sitting on their identity arrows, and both compositions
    come from base itself.
    """
    points = fc.discrete(base.n_obj)
    arrows = fc.discrete(base.n_mor)
    units = fc.discrete(base.n_obj)
    src = fc.FunctorMap(arrows, points, list(base.src), list(base.src))
    tgt = fc.FunctorMap(arrows, points, list(base.tgt), list(base.tgt))
    value = fc.FunctorMap(units, points, list(range(base.n_obj)),
                          list(range(base.n_obj)))
    as_arrow = fc.FunctorMap(units, arrows, list(base.identity), list(base.identity))
    p = from_presentation(
        points, arrows, units, src, tgt, value, as_arrow,
        lambda f, g: base.compose(g, f), lambda m, n: base.compose(n, m),
        lambda w1, w2: w1, lambda m, n: m)
    return build_fair(p)
