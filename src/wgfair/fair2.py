"""Fair structures: semi-category data for arrows and weak units over points.

A presentation keeps a category of points, a semi-category of arrows with
source and target anchors, and a semi-category of weak units embedded into
the arrows.  No unit laws are imposed on either composition; associativity
is strict and checked by enumeration.  Evaluation turns a presentation into
levels indexed by colored ordinals: plain edges read arrows, colored edges
read units, and the contravariant action folds paths using the two
compositions, pushing units into arrows where a plain edge crosses a
colored run.  Tuples read left to right in diagram order, matching the
double-category module, from which ``pi_star`` and ``pi_star_map`` lead.

The evaluation is functorial by construction.  A map f : a -> b of the
window sends edge j of a over the path of b from f(j) to f(j+1); dot maps
are strictly increasing, so that path is never empty and no fold needs an
identity.  For g : b -> c, the path of c under an edge of a is the
concatenation of the paths of c under the edges of b it covers, so
action(g . f) = action(f) . action(g) reduces to three facts.  Every
presentation is built by ``_assemble``, which checks them on levels and
functors its caller vouches for, units sitting at their value included:

- both compositions are strictly associative, so folding a row of folded
  rows is folding the concatenated row;
- the anchors are compatible: a composite starts where its first factor
  starts and ends where its last ends, and a unit pushed into the arrows
  starts and ends at its value, so every folded row is again a composable
  tuple and a dot reads the same point off it as off the row it came from;
- the unit embedding is a semi-functor, so a colored run that g splits over
  several edges of b, pushed into the arrows piece by piece and then
  composed, gives what pushing the whole run once gives.

``build_fair`` therefore builds actions on demand only; the exhaustive
comparison over every composable pair of window maps is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import anchored as an
from . import deltasite as ds
from . import fincat as fc


@dataclass(eq=False)
class FairPresentation:
    """Points, arrows and units with their anchors and compositions.

    src and tgt anchor arrows at points; value anchors units, and as_arrow
    embeds units into arrows over their value on both sides.  pair_arrows
    and pair_units are the strict composable-pair categories the two
    composition functors act on.  Presentations compare by identity.
    """

    points: fc.FinCat
    arrows: fc.FinCat
    units: fc.FinCat
    src: fc.FunctorMap
    tgt: fc.FunctorMap
    value: fc.FunctorMap
    as_arrow: fc.FunctorMap
    pair_arrows: fc.FiberChain
    comp_arrows: fc.FunctorMap
    pair_units: fc.FiberChain
    comp_units: fc.FunctorMap


def from_presentation(points, arrows, units, src, tgt, value, as_arrow,
                      compose_arrow_obj, compose_arrow_mor,
                      compose_unit_obj, compose_unit_mor):
    """Assemble a fair presentation from generating data, checking laws.

    The compose callables give the composite of a strictly composable pair
    in diagram order, objects and morphisms separately.  Checked here: the
    levels are categories (``fincat.validate_functor`` decides on
    generators, so a level that is not raises, naming it and its first law),
    the anchors, unit embedding and compositions are functors, and units
    start and end at their point; ``_assemble`` checks the rest.  There are
    no unit laws; every failure raises ValueError with a witness.
    """
    for name, level in (("points", points), ("arrows", arrows), ("units", units)):
        an.raise_first("the %s are not a category: " % name, fc.validate_category, level)
    an.check_maps((("source", src, arrows, points), ("target", tgt, arrows, points),
                   ("value", value, units, points), ("unit", as_arrow, units, arrows)))
    for name, anchor in (("start", src), ("end", tgt)):
        if fc.compose_functors(anchor, as_arrow) != value:
            raise ValueError("unit arrows do not %s at their point" % name)
    return _assemble(points, arrows, units, src, tgt, value, as_arrow,
                     *an.compose_pairs(arrows, tgt, src, compose_arrow_obj, compose_arrow_mor, ""),
                     *an.compose_pairs(units, value, value, compose_unit_obj, compose_unit_mor,
                                       "unit "))


def _assemble(points, arrows, units, src, tgt, value, as_arrow,
              pair_arrows, comp_arrows, pair_units, comp_units):
    """The presentation, once the laws its compositions can still break hold.

    The caller guarantees what ``from_presentation`` checks first, and pair
    chains over (tgt, src) and (value, value).  Checked here, in order:
    composites start and end where their factors do, unit composites stay
    over their point, both compositions associate, as_arrow is a semi-functor.
    """
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
    is a functor between levels.  The chains of o-o-o and o=o=o are the
    presentation's pair chains; the others are built on first use.
    """

    def __init__(self, p):
        self.p = p
        self._chains = {ds.parse_ordinal("o-o-o"): p.pair_arrows,
                        ds.parse_ordinal("o=o=o"): p.pair_units}
        self._disc = None

    def shapes(self):
        return ds.window_objects()

    def discretization(self):
        if self._disc is None:
            self._disc = fc.discretize(self.p.points)
        return self._disc

    def left_anchor(self, shape, i):
        return self.p.value if i in shape.colored else self.p.src

    def right_anchor(self, shape, i):
        return self.p.value if i in shape.colored else self.p.tgt

    def chain(self, shape):
        """Edgewise fiber product of a shape with at least one edge."""
        try:
            return self._chains[shape]
        except (KeyError, TypeError):    # not built yet, or not a shape
            if not isinstance(shape, ds.ColoredOrdinal):
                raise ValueError("%r is not a colored ordinal" % (shape,)) from None
        if shape.dots < 2:
            raise ValueError("the one-dot shape %s has no edges, so no chain" % shape.text())
        n = shape.dots - 1
        cats = [self.p.units if i in shape.colored else self.p.arrows for i in range(n)]
        self._chains[shape] = fc.single_chain(cats[0]) if n == 1 else fc.chain_fiber_product(
            cats, [self.right_anchor(shape, i) for i in range(n - 1)],
            [self.left_anchor(shape, i + 1) for i in range(n - 1)])
        return self._chains[shape]

    def level(self, shape):
        one_dot = isinstance(shape, ds.ColoredOrdinal) and shape.dots == 1
        return self.p.points if one_dot else self.chain(shape).cat

    def action(self, fat):
        """Functor induced on levels, against the direction of the map; built on every request."""
        if not isinstance(fat, ds.FatMap):
            raise ValueError("%r is not a colored map" % (fat,))
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


def build_fair(p):
    """Evaluate a presentation on the window, lazily.

    Levels and actions are built when first asked for.  Functoriality needs
    no check here: it follows from the laws ``_assemble`` enforces
    (see the module docstring).
    """
    return FairDiagram(p)


def pi_star(x):
    """The comparison functor pi* on instances; ``pi_star_map`` carries maps.

    Points read off level zero and arrows off level one; the units are the
    vertical objects again, sitting at themselves and on their identity
    arrows s0.  Arrows compose through x's own pairs and comp, units keep
    the first of a pair.  ``from_generators``, the only constructor, checked
    what ``from_presentation`` would (categories, functors, s0 a section of
    d0 and d1) and the unit laws, which give the semi-functor law;
    ``_assemble`` re-checks the rest.  Returns the evaluated diagram.
    """
    ident = fc.identity_functor(x.x0)
    units = fc.chain_fiber_product([x.x0, x.x0], [ident], [ident])
    return build_fair(_assemble(x.x0, x.x1, x.x0, x.d1, x.d0, ident, x.s0,
                                x.pairs, x.comp, units, units.projections[0]))


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


def vertical_window_maps():
    """Window maps that collapse to an identity, identities excluded."""
    out = []
    shapes = ds.window_objects()
    for a in shapes:
        for b in shapes:
            for f in ds.enumerate_hom(a, b):
                c = ds.collapse(f)
                if c == ds.identity_simplex(c.src_rank) and \
                        f != ds.fat_identity(a):
                    out.append(f)
    return out


def validate_fair2(d):
    """Axioms of the discrete-points fair structure, one line per failure.

    The five ``unit_generator_maps`` are checked first, then every other
    vertical window map.  That sweep cannot find anything when the points
    are discrete and all five generators are equivalences:

    - over discrete points, a level is a coproduct, over the points at its
      dots, of products of edge categories between fixed points;
    - each vertical map is a composite of the five generators placed
      edgewise: a generator's shape spliced in at a dot, the edges around it
      kept as they are (an anchor adds a unit edge beside its one dot, so
      it is placed at an end of the shape, the new edge outside);
    - a placed generator fixes the points at the ends of what it replaces,
      so it acts as (generator x identities) over fixed points.  An
      equivalence that fixes the points is one over each choice of them,
      since no morphism joins two choices, so each placed generator is an
      equivalence, and so is the composite, by functoriality.

    In that case the sweep is skipped; otherwise it runs, and its lines
    follow the generators' lines in window order.
    """
    problems = []
    p = d.p
    if p.points.n_mor != p.points.n_obj:
        problems.append("points are not discrete")
    named = set()
    for name, fat in unit_generator_maps():
        named.add(fat)
        line = an.not_equivalence("the %s map" % name, d.action(fat))
        if line:
            problems.append(line)
    # the sweep runs unless the points are discrete and every generator is
    # an equivalence, the case in which it provably finds nothing
    if not problems:
        return problems
    for fat in vertical_window_maps():
        if fat not in named and not fc.is_equivalence(d.action(fat)):
            problems.append("vertical map %r is not sent to an equivalence"
                            % (fat,))
    return problems


# ---------------------------------------------------------------------------
# The weakly globular variant


def class_chain(d, shape):
    """(edgewise fiber product over the point classes, embedding of the strict level)."""
    strict, q = d.chain(shape), d.discretization().quotient
    joins = range(shape.dots - 2)
    return an.segal_map(strict,
                        [fc.compose_functors(q, d.right_anchor(shape, i)) for i in joins],
                        [fc.compose_functors(q, d.left_anchor(shape, i + 1)) for i in joins])


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
        line = an.not_equivalence("axiom (c): induced Segal map at %s" % shape.text(),
                                  class_chain(d, shape)[1])
        if line:
            problems.append(line)
    for name, fat in unit_generator_maps():
        if not fc.is_equivalence(d.action(fat)):
            problems.append("axiom (d): the %s map is not an equivalence" % name)
    return problems


# ---------------------------------------------------------------------------
# Fundamental category and hom fibers


class FairPi1(an.Pi1):
    """Fundamental category of a fair structure; obj_* are the point classes."""


def pi1_fair(d):
    """Fundamental category, checked as ``wgdouble.pi1_double``'s; the units give the identities."""
    p = d.p
    units = [(p.value.obj(w), p.as_arrow.obj(w)) for w in range(p.units.n_obj)]
    return FairPi1(*an.pi1(p, units))


def hom_fiber_fair(d, a, b):
    """(full subcategory of the arrows from point class a to point class b, inclusion)."""
    return an.hom_fiber(d.p, a, b)


# ---------------------------------------------------------------------------
# Maps of fair structures


@dataclass
class FairMap:
    source: FairDiagram
    target: FairDiagram
    on_points: fc.FunctorMap
    on_arrows: fc.FunctorMap
    on_units: fc.FunctorMap

    def __post_init__(self):
        an.check_components(self.source.p, self.target.p, (("point", self.on_points, "points"),
                            ("arrow", self.on_arrows, "arrows"), ("unit", self.on_units, "units")))


def validate_fair_map(fmap):
    """Componentwise functor squares, as a violation list (``anchored.map_problems``)."""
    x, y = fmap.source.p, fmap.target.p
    fp, fa, fu = fmap.on_points, fmap.on_arrows, fmap.on_units
    return an.map_problems(
        (("point", fp), ("arrow", fa), ("unit", fu)),
        (("source", (y.src, fa), (fp, x.src)), ("target", (y.tgt, fa), (fp, x.tgt)),
         ("value", (y.value, fu), (fp, x.value)),
         ("unit embedding", (fa, x.as_arrow), (y.as_arrow, fu))),
        (("", ("source", "target"), x.pair_arrows, y.pair_arrows, x.comp_arrows,
          y.comp_arrows, fa),
         ("unit ", ("value",), x.pair_units, y.pair_units, x.comp_units, y.comp_units, fu)))


def level_map_fair(fmap, shape):
    """The induced functor on the level of a colored ordinal; each component read must fit."""
    fmap.source.level(shape)    # refuses a value that is not a colored ordinal
    names = ["units" if i in shape.colored else "arrows" for i in range(shape.dots - 1)]
    for name in dict.fromkeys(names or ["points"]):
        fc._check_functor_shape(getattr(fmap, "on_" + name), name)
    if not names:
        return fmap.on_points
    return fc.chain_map(fmap.source.chain(shape), fmap.target.chain(shape),
                        [getattr(fmap, "on_" + name) for name in names])


def identity_fair_map(d):
    return FairMap(d, d, fc.identity_functor(d.p.points),
                   fc.identity_functor(d.p.arrows),
                   fc.identity_functor(d.p.units))


def compose_fair_maps(g, f):
    if g.source is not f.target and g.source.p is not f.target.p:
        raise ValueError("fair maps are not composable")
    for m in (g, f):
        for name in ("points", "arrows", "units"):
            fc._check_functor_shape(getattr(m, "on_" + name), name)
    return FairMap(f.source, g.target,
                   fc.compose_functors(g.on_points, f.on_points),
                   fc.compose_functors(g.on_arrows, f.on_arrows),
                   fc.compose_functors(g.on_units, f.on_units))


def pi_star_map(fmap, source, target):
    """pi* on a double map between ``pi_star`` of its ends: points and units by f0, arrows by f1."""
    for d, x in ((source, fmap.source), (target, fmap.target)):
        if d.p.points is not x.x0 or d.p.arrows is not x.x1:
            raise ValueError("the diagrams are not pi* of the map's source and target")
    return FairMap(source, target, fmap.f0, fmap.f1, fmap.f0)


def pi1_fair_map(fmap):
    """Functor induced on fundamental categories."""
    return an.pi1_map(pi1_fair(fmap.source), pi1_fair(fmap.target),
                      fmap.on_points, fmap.on_arrows)


def is_2equivalence_fair(fmap):
    """The verdicts of ``wgdouble.is_2equivalence_double`` for a map of fair structures."""
    x, y = fmap.source, fmap.target
    p_src = pi1_fair(x)
    p_tgt = p_src if y is x else pi1_fair(y)
    return an.is_2equivalence(x.p, y.p, p_src, p_tgt, fmap.on_points, fmap.on_arrows)


# ---------------------------------------------------------------------------
# Rebasing onto the point classes


def _dragged(classes, class_of, xo, sf, t):
    # both endpoints of a transported arrow move: the target is carried by
    # the same class permutation that moves sf to xo (a pair of swaps with
    # the class's least member, the one a discretization's section picks),
    # and stays put when it lives in a different class.  Fixing the target
    # instead leaves the rebased composition non-associative as soon as a
    # composite lands in the unit image.
    c = class_of[sf]
    if class_of[t] != c:
        return t
    sec = classes[c][0]
    for y in (sf, xo):
        if t == sec:
            t = y
        elif t == y:
            t = sec
    return t


def build_fair_cleavage(p):
    """Search lawful transports, least transported object and cell first.

    Returns (arrows, units): arrows maps (arrow, iso into its source point)
    to a transported arrow with that source and an invertible connecting
    cell; units maps (unit, iso into its value) likewise inside the unit
    semi-category.  Raises ValueError when an arrow or unit has no
    transport along some point isomorphism; that is an honest obstruction
    of the instance, not a bug.
    """
    classes, class_of = fc.iso_classes(p.points)
    arrows = an.transport_table(
        p.points, p.arrows, p.src, p.tgt, lambda f, xo: _dragged(
            classes, class_of, xo, p.src.obj(f), p.tgt.obj(f)),
        "no transport of arrow %d along point isomorphism %d")
    # a unit starts and ends at its value, so both ends move together
    units = an.transport_table(p.points, p.units, p.value, p.value, lambda w, xo: xo,
                               "no transport of unit %d along point isomorphism %d")
    return arrows, units


@dataclass
class FairRetractions:
    arrow_pairs: fc.FiberChain
    nu_arrows: fc.FunctorMap
    unit_pairs: fc.FiberChain
    nu_units: fc.FunctorMap


def pair_retractions(d):
    """Sections of the pair embeddings over the point classes, by cleavage.

    The only strategy: the arrow and unit pairs of ``class_chain`` each get
    a section nu with nu . muhat the identity on the nose.  It anchors the
    first component of a pair and transports the second to start exactly
    where the first ends; a unit arrow is transported inside the unit
    semi-category instead and re-embedded, which is what later makes the
    unit embedding survive the rebasing.
    """
    p = d.p
    shapes = [ds.parse_ordinal("o-o-o"), ds.parse_ordinal("o=o=o")]
    (hat_a, mu_a), (hat_u, mu_u) = [class_chain(d, s) for s in shapes]
    arrows, units = build_fair_cleavage(p)
    # the least unit sitting on each unit arrow
    unit_of = {}
    for w in range(p.units.n_obj):
        unit_of.setdefault(p.as_arrow.obj(w), w)

    def unit_step(w, anchor):
        return units[(w, an.only(p.points.hom(anchor, p.value.obj(w))))]

    def arrow_step(a, anchor):
        w = unit_of.get(a)
        if w is None:
            return arrows[(a, an.only(p.points.hom(anchor, p.src.obj(a))))]
        w2, iot = unit_step(w, anchor)
        return p.as_arrow.obj(w2), p.as_arrow.mor(iot)

    nus = [an.walk_section(p.arrows, p.tgt, hat_a, d.chain(shapes[0]), arrow_step)[0],
           an.walk_section(p.units, p.value, hat_u, d.chain(shapes[1]), unit_step)[0]]
    an.check_sections([mu_a, mu_u], nus, "cleavage")
    return FairRetractions(hat_a, nus[0], hat_u, nus[1])


def discretize_fair(d, strategy="cleavage"):
    """Rebase a weakly globular fair structure onto its point classes.

    strategy "cleavage", the only one, takes ``pair_retractions``; any other
    value raises first.  The arrows and units stay d's, already checked; the
    anchors move to the discrete point classes, the pair chains are the
    hats, and each composition is d's after nu, a functor (it conjugates by
    invertible cells along a fully faithful muhat).  On discrete points the
    result is the input again, the one result the retired "retraction"
    strategy gave (``tests/test_assembly_reference.py`` records it), and
    ``_assemble`` re-checks what a section can break, raising ValueError.
    """
    if strategy != "cleavage":
        raise ValueError("unknown strategy %r" % (strategy,))
    p, disc = d.p, d.discretization()
    retr = pair_retractions(d)
    return build_fair(_assemble(
        disc.discrete, p.arrows, p.units,
        *[fc.compose_functors(disc.quotient, a) for a in (p.src, p.tgt, p.value)], p.as_arrow,
        retr.arrow_pairs, fc.compose_functors(p.comp_arrows, retr.nu_arrows),
        retr.unit_pairs, fc.compose_functors(p.comp_units, retr.nu_units)))


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
