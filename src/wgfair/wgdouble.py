"""Weakly globular double categories, stored as truncated nerves.

An instance keeps vertical arrows at level zero and horizontal arrows and
cells at level one; levels two and three are the strict chains of composable
pairs and triples, the pairs built with the composition and the triples on
first use, and ``WGDouble.nerve_action`` is the simplicial structure on
levels 0..3.  Weak globularity asks level zero to be homotopically
discrete and the Segal maps induced over its discretization to be
equivalences.  Everything is checked by enumeration.

Tuples of composable arrows read left to right in diagram order: in a pair
(f, g) the target of f is the source of g, and the composite is "g after f".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import anchored as an
from . import deltasite as ds
from . import fincat as fc
from . import pseudo as ps
from .anchored import Pi1


class WGDouble:
    """Internal category in Cat, truncated at level three.

    d1 gives the source vertical object of a horizontal arrow, d0 the
    target; s0 picks identity horizontal arrows; comp composes the strict
    pairs category onto level one.  The instance owns its chains of
    composable tuples (``chain``): the pairs come from the builder.
    """

    def __init__(self, x0, x1, d0, d1, s0, comp, pairs):
        self.x0 = x0
        self.x1 = x1
        self.d0 = d0
        self.d1 = d1
        self.s0 = s0
        self.comp = comp
        self.pairs = pairs
        self._chains = {1: fc.single_chain(x1), 2: pairs}
        self._nerve = {}
        self._segal = None

    def level(self, k):
        return self.x0 if k == 0 else self.chain(k).cat

    def chain(self, k):
        """The strict chain of composable k-tuples, k in 1..3; triples are built on first use."""
        if k not in (1, 2, 3):
            raise ValueError("rank %r has no chain of composable tuples (ranks 1 to 3 do)" % (k,))
        if k not in self._chains:
            self._chains[k] = fc.chain_fiber_product([self.x1] * 3, [self.d0] * 2, [self.d1] * 2)
        return self._chains[k]

    def nerve_action(self, f):
        """Contravariant action of a weakly increasing map on the nerve.

        For f : [m] -> [n] this is the functor level(n) -> level(m) that
        composes each arrow string over the intervals cut out by f and
        inserts identity arrows on collapsed intervals.
        """
        try:
            return self._nerve[f]
        except (KeyError, TypeError):    # not built yet, or not an ordinal map
            if not isinstance(f, ds.SimplexMap):
                raise ValueError("%r is not an ordinal map" % (f,)) from None
        m, n = f.src_rank, f.tgt_rank
        vals = f.values
        spans = list(zip(vals, vals[1:]))
        source, target = self.level(n), self.level(m)
        # level zero holds no strings and packs no tuples: a point is its own vertex
        strings = self.chain(n) if n else None
        tuples = self.chain(m) if m else None
        maps = []
        for count, labels, ids, pair_id, comp, d1, d0, s0 in (
                (source.n_obj, strings and strings.obj_label, tuples and tuples.obj_id,
                 self.pairs.obj_id, self.comp.obj_map, self.d1.obj_map,
                 self.d0.obj_map, self.s0.obj_map),
                (source.n_mor, strings and strings.mor_label, tuples and tuples.mor_id,
                 self.pairs.mor_id, self.comp.mor_map, self.d1.mor_map,
                 self.d0.mor_map, self.s0.mor_map)):
            out = []
            for e in range(count):
                t = labels[e] if n else ()
                verts = [d1[t[0]], *map(d0.__getitem__, t)] if n else [e]
                if m == 0:
                    out.append(verts[vals[0]])
                    continue
                parts = []
                for lo, hi in spans:
                    c = s0[verts[lo]] if lo == hi else t[lo]
                    for g in t[lo + 1:hi]:
                        c = comp[pair_id[(c, g)]]
                    parts.append(c)
                out.append(ids[tuple(parts)])
            maps.append(out)
        fun = fc.FunctorMap(source, target, *maps)
        self._nerve[f] = fun
        return fun


def from_generators(x0, x1, d0, d1, s0, compose_obj, compose_mor):
    """Assemble a double category from its generating data, checking laws.

    compose_obj / compose_mor give the composite of a strictly composable
    pair in diagram order.  Violations of the category laws raise ValueError
    with a witness; an all-empty instance is fine, but a nonempty level one
    over an empty level zero is rejected.  Both levels must be categories,
    since ``fincat.validate_functor`` decides the functor checks on
    generators: a level that is not raises, naming it and its first law.
    """
    if x0.n_obj == 0 and x1.n_obj > 0:
        raise ValueError("level zero is empty but level one is not")
    for name, level in (("level zero", x0), ("level one", x1)):
        an.raise_first("%s is not a category: " % name, fc.validate_category, level)
    an.check_maps((("target", d0, x1, x0), ("source", d1, x1, x0), ("identity", s0, x0, x1)))
    for name, fun in (("source", d1), ("target", d0)):
        if fc.compose_functors(fun, s0) != fc.identity_functor(x0):
            raise ValueError("identity map is not a section of the %s map" % name)

    pairs, comp = an.compose_pairs(x1, d0, d1, compose_obj, compose_mor, "")
    for what, labels, cm, e1, e0 in (
            ("pair", pairs.obj_label, comp.obj_map, d1.obj_map, d0.obj_map),
            ("cell pair", pairs.mor_label, comp.mor_map, d1.mor_map, d0.mor_map)):
        for i, (f, g) in enumerate(labels):
            if e1[cm[i]] != e1[f] or e0[cm[i]] != e0[g]:
                raise ValueError("composite of %s %d has wrong endpoints" % (what, i))

    x = WGDouble(x0, x1, d0, d1, s0, comp, pairs)

    for i, tag in ((0, "left"), (1, "right")):
        unit = fc.compose_functors(comp, x.nerve_action(ds.codegeneracy(i, 1)))
        if unit != fc.identity_functor(x1):
            # an arrow or its identity cell first, then any cell
            wits = [("horizontal arrow", o) for o in range(x1.n_obj) if unit.obj_map[o] != o
                    or unit.mor_map[x1.identity[o]] != x1.identity[o]]
            wits += [("cell", m) for m in range(x1.n_mor) if unit.mor_map[m] != m]
            raise ValueError("%s unit law fails at %s %d" % ((tag,) + wits[0]))
    an.check_associative(pairs, comp, "")
    return x


# ---------------------------------------------------------------------------
# Segal maps over the discretized level zero


@dataclass
class SegalData:
    x0d: fc.FinCat
    gamma: fc.FunctorMap
    gamma_section: fc.FunctorMap
    hat2: fc.FiberChain
    muhat2: fc.FunctorMap
    hat3: fc.FiberChain
    muhat3: fc.FunctorMap


def segal_data(x):
    """Discretization of level zero plus the induced Segal maps.

    hat2/hat3 are the fiber products of gamma-composable tuples; muhat_k
    embeds the strict tuples (``anchored.segal_map``).  Requires a
    homotopically discrete level zero.  Built once per instance; a level
    zero that cannot be discretized raises ValueError every time.
    """
    if x._segal is not None:
        return x._segal
    dz = fc.discretize(x.x0)
    # each anchor is composed with the quotient once, for both ranks
    end, start = (fc.compose_functors(dz.quotient, d) for d in (x.d0, x.d1))
    (hat2, muhat2), (hat3, muhat3) = (
        an.segal_map(x.chain(k), [end] * (k - 1), [start] * (k - 1)) for k in (2, 3))
    x._segal = SegalData(dz.discrete, dz.quotient, dz.section, hat2, muhat2, hat3, muhat3)
    return x._segal


def validate_catwg2(x):
    """Weak globularity axioms as a report, one line per failure."""
    problems = []
    flag, wit = fc.is_homotopically_discrete(x.x0)
    if not flag:
        problems.append("axiom (a): level zero is not homotopically discrete"
                        " (witness morphism %d)" % wit)
    # axiom (b): from_generators builds the pairs and chain(3) the triples as
    # strict chains of composable tuples over (d0, d1), so the Segal maps are
    # identities and there is nothing to enumerate
    if flag:
        sd = segal_data(x)
        for k, muhat in ((2, sd.muhat2), (3, sd.muhat3)):
            line = an.not_equivalence("axiom (c): induced level-%d Segal map" % k, muhat)
            if line:
                problems.append(line)
    else:
        problems.append("axiom (c): skipped, level zero could not be discretized")
    return problems


# ---------------------------------------------------------------------------
# Cleavages and the two retraction strategies


def build_cleavage(x):
    """Search a lawful cleavage, least transported arrow and cell first.

    The cleavage is a dict of chosen transports of horizontal arrows along
    vertical isomorphisms: for an arrow f and a vertical isomorphism
    phi : x -> src(f), the entry at (f, phi) is (g, cell), g an arrow with
    source exactly x and the same target, cell invertible onto f.  Raises
    ValueError when some arrow has no transport along some vertical
    isomorphism; that is an honest obstruction of the instance, not a bug.
    """
    # the target stays put, so its cell component is an identity
    return an.transport_table(
        x.x0, x.x1, x.d1, x.d0, lambda f, xo: x.d0.obj(f),
        "no transport of horizontal arrow %d along vertical isomorphism %d")


@dataclass
class Retractions:
    strategy: str
    nu2: fc.FunctorMap
    counit2: fc.NatTransf
    nu3: fc.FunctorMap
    counit3: fc.NatTransf


def segal_retractions(x, strategy="cleavage"):
    """Chosen pseudo-inverses nu_k to the Segal maps of ``segal_data(x)``, with counits.

    strategy "cleavage" walks each gamma-composable tuple left to right,
    anchoring the first component and transporting the rest to start
    exactly where the previous one ends; components that are identity
    arrows are absorbed into the identity at the anchor instead of
    transported, and the connecting cells assemble into the counit.
    "retraction" uses the generic minimal-identity retraction.  Either way
    nu_k . muhat_k is the identity on the nose and the counit
    muhat_k . nu_k => Id is an invertible natural transformation.
    """
    sd = segal_data(x)

    def walks():
        table = build_cleavage(x)
        s0img = {x.s0.obj(o): o for o in range(x.x0.n_obj)}

        def step(a, anchor):
            if a in s0img:
                return x.s0.obj(anchor), x.s0.mor(an.only(x.x0.hom(anchor, s0img[a])))
            return table[(a, an.only(x.x0.hom(anchor, x.d1.obj(a))))]

        return [an.walk_section(x.x1, x.d0, hat, x.chain(k), step)
                for k, hat in ((2, sd.hat2), (3, sd.hat3))]

    (nu2, c2), (nu3, c3) = an.sections(strategy, [sd.muhat2, sd.muhat3], walks)
    return Retractions(strategy, nu2, c2, nu3, c3)


# ---------------------------------------------------------------------------
# Strictification of the truncated nerve into a Segalic pseudo-functor


@dataclass
class Tr2Result:
    base: WGDouble
    segal: SegalData
    retr: Retractions
    diagram: ps.PseudoDiagram
    strategy: str


def tr2_strong_segalic(x, strategy="cleavage"):
    """Segalic pseudo-functor on the truncated ordinal site.

    Levels are the discretized level zero, level one, and the fiber products
    hat_k of gamma-composable tuples, and two rules make the rest.  A spine
    map [1] -> [k] acts as the projection of hat_k onto its factor, so the
    Segal maps of the result are identities; every other map acts by
    transport, the nerve action between the sections nu_k and the embeddings
    muhat_k (between levels 0 and 1, the faces rebased through gamma and the
    degeneracy through its section).  The comparison iso from the action of a
    spine map, or of an identity at rank 2 or 3, to its transport is the
    inverse of rank k's counit seen through the action; any other map has
    none, and the cells paste these isos.  All of these are kept by site map
    number; only the nerve action reads a map's label.  Rejects instances
    that fail the globularity axioms.
    """
    an.raise_first("not weakly globular: ", validate_catwg2, x)
    sd = segal_data(x)
    retr = segal_retractions(x, strategy)
    site = ps.OrdinalSite(3)
    cat, maps = site.cat, site.maps
    levels = {0: sd.x0d, 1: x.x1, 2: sd.hat2.cat, 3: sd.hat3.cat}
    e = {0: sd.gamma_section, 1: fc.identity_functor(x.x1),
         2: retr.nu2, 3: retr.nu3}
    ebar = {0: sd.gamma, 1: fc.identity_functor(x.x1),
            2: sd.muhat2, 3: sd.muhat3}
    counits = {2: retr.counit2, 3: retr.counit3}
    spines = {site.index[ds.SimplexMap(1, k, (j - 1, j))]: hat.projections[j - 1]
              for k, hat in ((2, sd.hat2), (3, sd.hat3)) for j in range(1, k + 1)}
    isos = set(spines) | {cat.identity[2], cat.identity[3]}
    transports, alphas = [None] * len(maps), [None] * len(maps)

    def transport(f):
        if transports[f] is None:
            transports[f] = fc.compose_functors(
                ebar[cat.src[f]], fc.compose_functors(x.nerve_action(maps[f]), e[cat.tgt[f]]))
        return transports[f]

    def alpha(f):
        """Components of the chosen iso action(f) => transport(f), or None."""
        if alphas[f] is None and f in isos:
            k = cat.tgt[f]
            act, inverse = diagram.action(f).mor_map, levels[k].inverse
            alphas[f] = [act[inverse(c)] for c in counits[k].components]
        return alphas[f]

    def cell(g, f):
        """Components of the comparison at (g, f), or None where it is the identity."""
        a, b, c = cat.src[f], cat.tgt[f], cat.tgt[g]
        af, ag, agf = alpha(f), alpha(g), alpha(cat.compose(g, f))
        if b != 0 and af is None and ag is None and agf is None:
            return None
        bottom = levels[a]
        go, tfm = diagram.action(g).obj_map, transport(f).mor_map
        if b == 0:
            wo, fm = x.nerve_action(maps[g]).obj_map, x.nerve_action(maps[f]).mor_map
            eo, so, qo = e[c].obj_map, sd.gamma_section.obj_map, sd.gamma.obj_map
            ebm = ebar[a].mor_map
        comps = []
        for y in range(levels[c].n_obj):
            steps = []
            if af is not None:
                steps.append(af[go[y]])
            if ag is not None:
                steps.append(tfm[ag[y]])
            if b == 0:
                w = wo[eo[y]]
                kap = an.only(x.x0.hom(so[qo[w]], w))
                # a composite through level zero: kap whiskered by f
                steps.append(ebm[fm[kap]])
            if agf is not None:
                steps.append(bottom.inverse(agf[y]))
            total = steps[0]
            for nxt in steps[1:]:
                total = bottom.compose(nxt, total)
            comps.append(total)
        return comps

    diagram = ps.PseudoDiagram(site, levels.__getitem__,
                               lambda f: spines.get(f) or transport(f), cell)
    return Tr2Result(x, sd, retr, diagram, strategy)


def tr2_map(fmap, res_src, res_tgt):
    """Induced map of strictified diagrams, with its face naturality report.

    Level zero is the map of classes, level one the horizontal component,
    and the higher levels act componentwise on composable tuples.  Squares
    over the tuple projections are then exact by construction; the report
    lists the remaining face squares that fail to commute on the nose,
    which happens exactly when the map does not carry the chosen section
    on the left to the one on the right.
    """
    if fmap.source is not res_src.base or fmap.target is not res_tgt.base:
        raise ValueError("the map does not run between the instances the two results strictify")
    sds, sdt = res_src.segal, res_tgt.segal
    to_classes = fc.compose_functors(level_map(fmap, 0), sds.gamma_section)
    fc._check_functor_shape(fmap.f1, "arrows")
    comps = {0: fc.compose_functors(sdt.gamma, to_classes), 1: fmap.f1}
    for k, hat_s, hat_t in ((2, sds.hat2, sdt.hat2), (3, sds.hat3, sdt.hat3)):
        comps[k] = fc.chain_map(hat_s, hat_t, [fmap.f1] * k)
    report = []
    for k in (1, 2, 3):
        for i in range(k + 1):
            dmap = res_src.diagram.site.index[ds.coface(i, k)]
            lhs = fc.compose_functors(comps[k - 1], res_src.diagram.action(dmap))
            rhs = fc.compose_functors(res_tgt.diagram.action(dmap), comps[k])
            if lhs != rhs:
                report.append("face square %d at level %d is not exact" % (i, k))
    return {"components": comps, "report": report}


def tr2_face_report(res):
    """Exactness of the semi-simplicial face identities of the diagram."""
    problems = []
    index, action = res.diagram.site.index, res.diagram.action
    face = {(i, k): action(index[ds.coface(i, k)]) for k in (1, 2, 3) for i in range(k + 1)}
    for k in (2, 3):
        for j in range(k + 1):
            for i in range(j):
                lhs = fc.compose_functors(face[(i, k - 1)], face[(j, k)])
                rhs = fc.compose_functors(face[(j - 1, k - 1)], face[(i, k)])
                if lhs != rhs:
                    problems.append("face identity (%d,%d) fails at level %d" % (i, j, k))
    return problems


def tr2_segal_report(res):
    """The Segal maps of the diagram, assembled from spine actions, are identities."""
    problems = []
    for k, hat in ((2, res.segal.hat2), (3, res.segal.hat3)):
        legs = [res.diagram.action(res.diagram.site.index[ds.SimplexMap(1, k, (j - 1, j))])
                for j in range(1, k + 1)]
        if fc.mediating_functor(hat, legs) != fc.identity_functor(hat.cat):
            problems.append("assembled Segal map at level %d is not the identity" % k)
    return problems


# ---------------------------------------------------------------------------
# Maps of double categories, hom fibers, the fundamental category


@dataclass
class DoubleMap:
    source: WGDouble
    target: WGDouble
    f0: fc.FunctorMap
    f1: fc.FunctorMap

    def __post_init__(self):
        an.check_components(self.source, self.target,
                            (("vertical", self.f0, "x0"), ("horizontal", self.f1, "x1")))


def validate_double_map(fmap):
    """Levelwise functor squares, as a violation list (``anchored.map_problems``)."""
    x, y, f0, f1 = fmap.source, fmap.target, fmap.f0, fmap.f1
    return an.map_problems(
        (("vertical", f0), ("horizontal", f1)),
        (("source", (y.d1, f1), (f0, x.d1)), ("target", (y.d0, f1), (f0, x.d0)),
         ("identity", (f1, x.s0), (y.s0, f0))),
        (("", ("source", "target"), x.pairs, y.pairs, x.comp, y.comp, f1),))


def level_map(fmap, k):
    """The induced functor on level k; the component it reads must fit its source."""
    fc._check_functor_shape(fmap.f1 if k else fmap.f0, "arrows" if k else "points")
    if k == 0:
        return fmap.f0
    return fc.chain_map(fmap.source.chain(k), fmap.target.chain(k), [fmap.f1] * k)


def identity_double_map(x):
    return DoubleMap(x, x, fc.identity_functor(x.x0), fc.identity_functor(x.x1))


def _anchored(x):
    """The double category as arrows anchored at points (see ``anchored``)."""
    return an.Anchored(x.x0, x.x1, x.d1, x.d0, x.pairs, x.comp)


def pi1_double(x):
    """Fundamental category: iso classes levelwise, composition descended.

    Verifies on the way that composition descends single-valuedly and that
    the image of the pairs level is the strict fiber product of classes;
    both can genuinely fail off the weakly globular world, and then this
    raises ValueError rather than guessing.
    """
    units = [(o, x.s0.obj(o)) for o in range(x.x0.n_obj)]
    return Pi1(*an.pi1(_anchored(x), units))


def pi1_map(fmap):
    """Functor induced on fundamental categories."""
    return an.pi1_map(pi1_double(fmap.source), pi1_double(fmap.target),
                      fmap.f0, fmap.f1)


def hom_fiber(x, a, b):
    """(full subcategory of level one on the arrows from class a to class b, inclusion)."""
    return an.hom_fiber(_anchored(x), a, b)


def is_2equivalence_double(fmap):
    """Hom-fiber equivalences plus fundamental-category equivalence.

    The relaxed verdict replaces the fundamental-category equivalence by
    surjectivity on its objects, which the fiber conditions then upgrade.
    """
    x, y = fmap.source, fmap.target
    p_src = pi1_double(x)
    p_tgt = p_src if y is x else pi1_double(y)
    return an.is_2equivalence(_anchored(x), _anchored(y), p_src, p_tgt, fmap.f0, fmap.f1)


# ---------------------------------------------------------------------------
# Generators


def generate_from_surjection(base, assignment):
    """Double category of a surjection onto the objects of a base category.

    Level zero is the chaotic equivalence relation on the fibers of the
    assignment; horizontal arrows are triples (s, b, s2) with b a base
    morphism from the fiber of s to the fiber of s2, with a unique cell
    between triples exactly when they share b.  Both levels are thin
    (``thin_from_preorder``), so vertical arrows and cells are numbered by
    endpoint pair.  Returns the instance plus lookup tables for the triples
    and for those numberings.
    """
    ns = len(assignment)
    assignment = tuple(assignment)
    if set(assignment) != set(range(base.n_obj)):
        raise ValueError("assignment is not a surjection onto the base objects")
    x0 = fc.thin_from_preorder(ns, [(s, u) for s in range(ns) for u in range(ns)
                                    if assignment[s] == assignment[u]])
    triples = [(s, b, s2) for s in range(ns) for s2 in range(ns)
               for b in base.hom(assignment[s], assignment[s2])]
    t_id = {t: i for i, t in enumerate(triples)}
    x1 = fc.thin_from_preorder(len(triples), [(i, j) for i, t in enumerate(triples)
                                              for j, u in enumerate(triples) if t[1] == u[1]])
    m0_id = {pair: m for m, pair in enumerate(zip(x0.src, x0.tgt))}
    m1_id = {pair: m for m, pair in enumerate(zip(x1.src, x1.tgt))}

    d1, d0 = (fc.FunctorMap(x1, x0, [t[e] for t in triples],
                            [m0_id[(triples[i][e], triples[j][e])] for i, j in m1_id])
              for e in (0, 2))
    unit = [t_id[(s, base.identity[assignment[s]], s)] for s in range(ns)]
    s0 = fc.FunctorMap(x0, x1, unit, [m1_id[(unit[s], unit[u])] for s, u in m0_id])

    def compose_obj(i, j):
        s, b, _ = triples[i]
        _, b2, s3 = triples[j]
        return t_id[(s, base.compose(b2, b), s3)]

    def compose_mor(m, m2):
        return m1_id[(compose_obj(x1.src[m], x1.src[m2]),
                      compose_obj(x1.tgt[m], x1.tgt[m2]))]

    x = from_generators(x0, x1, d0, d1, s0, compose_obj, compose_mor)
    aux = {"base": base, "assignment": assignment,
           "triples": tuple(triples), "triple_id": t_id,
           "x0_mor_id": m0_id, "x1_mor_id": m1_id}
    return x, aux


def from_base_category(base):
    """The base category viewed as a double category with discrete level zero."""
    return generate_from_surjection(base, list(range(base.n_obj)))


def pi1_base_functor(aux, p):
    """Canonical comparison from the fundamental category p onto the base."""
    base = aux["base"]
    obj_map = [aux["assignment"][cls[0]] for cls in p.obj_classes]
    mor_map = [aux["triples"][cls[0]][1] for cls in p.arrow_classes]
    fun = fc.FunctorMap(p.cat, base, obj_map, mor_map)
    an.raise_first("comparison onto the base is not a functor: ", fc.validate_functor, fun)
    return fun


def micro_counterexample():
    """Smallest instance passing (a) and (b) but failing axiom (c).

    Level zero is chaotic on two objects; level one has the two identity
    arrows (chaotically isomorphic) and one extra arrow between the classes.
    The pair of the extra arrow with itself is gamma-composable but has no
    strictly composable counterpart, so the induced Segal map misses it.
    """
    x0 = fc.chaotic(2)
    x1, ob_off, mor_off = fc.disjoint_union([fc.chaotic(2), fc.discrete(1)])
    ia, ib, f = ob_off[0], ob_off[0] + 1, ob_off[1]
    d1 = fc.FunctorMap(x1, x0, [0, 1, 0],
                       [m if m < mor_off[1] else x0.identity[0]
                        for m in range(x1.n_mor)])
    d0 = fc.FunctorMap(x1, x0, [0, 1, 1],
                       [m if m < mor_off[1] else x0.identity[1]
                        for m in range(x1.n_mor)])
    s0 = fc.FunctorMap(x0, x1, [ia, ib], list(range(mor_off[1])))

    def compose_obj(u, v):
        # strictly composable unit-block pairs are diagonal, so u wins there
        return f if f in (u, v) else u

    def compose_mor(m, m2):
        if m >= mor_off[1] or m2 >= mor_off[1]:
            return x1.identity[f]
        return m

    return from_generators(x0, x1, d0, d1, s0, compose_obj, compose_mor)


def generate_random_wg(seed, max_base_objects=3, max_fiber=2):
    """Seeded weakly globular double category from a random thin base.

    With bounds (1, 1) this degenerates to the terminal instance.  Valid by
    construction, and from_generators re-checks anyway.  Both bounds must
    be at least 1; ValueError naming the bound otherwise.
    """
    for name, bound in (("max_base_objects", max_base_objects), ("max_fiber", max_fiber)):
        if not isinstance(bound, int) or bound < 1:
            raise ValueError("%s must be at least 1, not %r" % (name, bound))
    rng = random.Random(seed)
    n = rng.randint(1, max_base_objects)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                reach[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    base = fc.thin_from_preorder(
        n, [(i, j) for i in range(n) for j in range(n) if reach[i][j]])
    assignment = [b for b in range(n) for _ in range(rng.randint(1, max_fiber))]
    return generate_from_surjection(base, assignment)
