"""Weakly globular double categories, stored as truncated nerves.

An instance keeps a category of vertical arrows at level zero and a category
of horizontal arrows and cells at level one; levels two and three are strict
fiber products of composable tuples.  Weak globularity asks the level-zero
category to be homotopically discrete and the Segal maps induced over its
discretization to be equivalences.  Everything is checked by enumeration.

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
    pairs category onto level one.
    """

    def __init__(self, x0, x1, d0, d1, s0, comp, pairs, triples):
        self.x0 = x0
        self.x1 = x1
        self.d0 = d0
        self.d1 = d1
        self.s0 = s0
        self.comp = comp
        self.pairs = pairs
        self.triples = triples
        self.edges = fc.single_chain(x1)
        self._faces = {}
        self._degens = {}
        self._nerve = {}
        self._segal = None

    def level(self, k):
        return self.x0 if k == 0 else self.chain(k).cat

    def chain(self, k):
        """The strict fiber product of composable k-tuples, k in (1, 2, 3)."""
        return {1: self.edges, 2: self.pairs, 3: self.triples}[k]

    def face(self, k, i):
        """The i-th face functor level(k) -> level(k-1)."""
        if (k, i) not in self._faces:
            pr2 = self.pairs.projections
            pr3 = self.triples.projections
            if k == 1:
                fun = (self.d0, self.d1)[i]
            elif k == 2:
                fun = (pr2[1], self.comp, pr2[0])[i]
            else:
                mid = fc.mediating_functor
                first = mid(self.pairs, [pr3[0], pr3[1]])
                last = mid(self.pairs, [pr3[1], pr3[2]])
                fun = (last,
                       mid(self.pairs, [fc.compose_functors(self.comp, first), pr3[2]]),
                       mid(self.pairs, [pr3[0], fc.compose_functors(self.comp, last)]),
                       first)[i]
            self._faces[(k, i)] = fun
        return self._faces[(k, i)]

    def degen(self, k, i):
        """The i-th degeneracy functor level(k) -> level(k+1)."""
        if (k, i) not in self._degens:
            mid = fc.mediating_functor
            one = fc.identity_functor(self.x1)
            if k == 0:
                fun = self.s0
            elif k == 1:
                us = fc.compose_functors(self.s0, self.d1)
                ut = fc.compose_functors(self.s0, self.d0)
                fun = mid(self.pairs, [us, one]) if i == 0 else mid(self.pairs, [one, ut])
            else:
                pr = self.pairs.projections
                us = fc.compose_functors(self.s0, fc.compose_functors(self.d1, pr[0]))
                u1 = fc.compose_functors(self.s0, fc.compose_functors(self.d0, pr[0]))
                u2 = fc.compose_functors(self.s0, fc.compose_functors(self.d0, pr[1]))
                legs = ([us, pr[0], pr[1]], [pr[0], u1, pr[1]], [pr[0], pr[1], u2])[i]
                fun = mid(self.triples, legs)
            self._degens[(k, i)] = fun
        return self._degens[(k, i)]

    def nerve_action(self, f):
        """Contravariant action of a weakly increasing map on the nerve.

        For f : [m] -> [n] this is the functor level(n) -> level(m) that
        composes each arrow string over the intervals cut out by f and
        inserts identity arrows on collapsed intervals.
        """
        if f in self._nerve:
            return self._nerve[f]
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
                if n == 0:
                    out.append(e if m == 0 else ids[(s0[e],) * m])
                    continue
                t = labels[e]
                if m == 0:
                    j = vals[0]
                    out.append(d1[t[0]] if j == 0 else d0[t[j - 1]])
                    continue
                parts = []
                for lo, hi in spans:
                    if lo == hi:
                        parts.append(s0[d1[t[0]] if lo == 0 else d0[t[lo - 1]]])
                        continue
                    c = t[lo]
                    for g in t[lo + 1:hi]:
                        c = comp[pair_id[(c, g)]]
                    parts.append(c)
                out.append(ids[tuple(parts)])
            maps.append(out)
        fun = fc.FunctorMap(source, target, *maps)
        self._nerve[f] = fun
        return fun


def simplicial_identity_report(x):
    """Every face/degeneracy identity expressible within levels 0..3."""
    problems = []

    def eq(tag, left, right):
        if left != right:
            problems.append(tag)

    for k in (2, 3):
        for j in range(k + 1):
            for i in range(j):
                eq("face-face (%d,%d) at level %d" % (i, j, k),
                   fc.compose_functors(x.face(k - 1, i), x.face(k, j)),
                   fc.compose_functors(x.face(k - 1, j - 1), x.face(k, i)))
    for k in (0, 1):
        for j in range(k + 1):
            for i in range(j + 1):
                eq("degeneracy-degeneracy (%d,%d) at level %d" % (i, j, k),
                   fc.compose_functors(x.degen(k + 1, i), x.degen(k, j)),
                   fc.compose_functors(x.degen(k + 1, j + 1), x.degen(k, i)))
    for k in (0, 1, 2):
        for j in range(k + 1):
            for i in range(k + 2):
                left = fc.compose_functors(x.face(k + 1, i), x.degen(k, j))
                if i == j or i == j + 1:
                    right = fc.identity_functor(x.level(k))
                elif i < j:
                    right = fc.compose_functors(x.degen(k - 1, j - 1), x.face(k, i))
                else:
                    right = fc.compose_functors(x.degen(k - 1, j), x.face(k, i - 1))
                eq("face-degeneracy (%d,%d) at level %d" % (i, j, k), left, right)
    return problems


def from_generators(x0, x1, d0, d1, s0, compose_obj, compose_mor):
    """Assemble a double category from its generating data, checking laws.

    compose_obj / compose_mor give the composite of a strictly composable
    pair in diagram order.  Violations of the category laws raise ValueError
    with a witness; an all-empty instance is fine, but a nonempty level one
    over an empty level zero is rejected.
    """
    if x0.n_obj == 0 and x1.n_obj > 0:
        raise ValueError("level zero is empty but level one is not")
    for name, fun, src, tgt in (("target", d0, x1, x0), ("source", d1, x1, x0),
                                ("identity", s0, x0, x1)):
        if fun.source != src or fun.target != tgt:
            raise ValueError("%s map has wrong endpoints" % name)
        bad = fc.validate_functor(fun)
        if bad:
            raise ValueError("%s map is not a functor: %s" % (name, bad[0]))
    for name, fun in (("source", d1), ("target", d0)):
        if fc.compose_functors(fun, s0) != fc.identity_functor(x0):
            raise ValueError("identity map is not a section of the %s map" % name)

    pairs = fc.chain_fiber_product([x1, x1], [d0], [d1])
    comp = fc.FunctorMap(pairs.cat, x1,
                         [compose_obj(*t) for t in pairs.obj_label],
                         [compose_mor(*t) for t in pairs.mor_label])
    bad = fc.validate_functor(comp)
    if bad:
        raise ValueError("composition is not functorial: %s" % bad[0])
    for i, (f, g) in enumerate(pairs.obj_label):
        c = comp.obj(i)
        if d1.obj(c) != d1.obj(f) or d0.obj(c) != d0.obj(g):
            raise ValueError("composite of pair %d has wrong endpoints" % i)

    triples = fc.chain_fiber_product([x1, x1, x1], [d0, d0], [d1, d1])
    x = WGDouble(x0, x1, d0, d1, s0, comp, pairs, triples)

    for i, tag in ((0, "left"), (1, "right")):
        unit = fc.compose_functors(comp, x.degen(1, i))
        if unit != fc.identity_functor(x1):
            wit = next(o for o in range(x1.n_obj)
                       if unit.obj_map[o] != o or unit.mor_map[x1.identity[o]] != x1.identity[o])
            raise ValueError("%s unit law fails at horizontal arrow %d" % (tag, wit))
    left = fc.compose_functors(comp, x.face(3, 1))
    right = fc.compose_functors(comp, x.face(3, 2))
    if left != right:
        wit = next(i for i in range(triples.cat.n_obj)
                   if left.obj_map[i] != right.obj_map[i])
        raise ValueError("composition is not associative at triple %r"
                         % (triples.obj_label[wit],))
    report = simplicial_identity_report(x)
    if report:
        raise ValueError("simplicial identity fails: %s" % report[0])
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
    embeds the strict tuples.  Requires a homotopically discrete level zero.
    Built once per instance; a level zero that cannot be discretized raises
    ValueError every time.
    """
    if x._segal is not None:
        return x._segal
    dz = fc.discretize(x.x0)
    gd0 = fc.compose_functors(dz.quotient, x.d0)
    gd1 = fc.compose_functors(dz.quotient, x.d1)
    hat2 = fc.chain_fiber_product([x.x1, x.x1], [gd0], [gd1])
    hat3 = fc.chain_fiber_product([x.x1, x.x1, x.x1], [gd0, gd0], [gd1, gd1])
    muhat2 = fc.mediating_functor(hat2, x.pairs.projections)
    muhat3 = fc.mediating_functor(hat3, x.triples.projections)
    # strict tuples stay distinct, so both are injective on objects
    for strict, muhat in ((x.pairs, muhat2), (x.triples, muhat3)):
        first = {}
        for o, y in enumerate(muhat.obj_map):
            if first.setdefault(y, o) != o:
                raise ValueError("strict tuples %r and %r have the same image"
                                 % (strict.obj_label[first[y]], strict.obj_label[o]))
    x._segal = SegalData(dz.discrete, dz.quotient, dz.section, hat2, muhat2, hat3, muhat3)
    return x._segal


def validate_catwg2(x):
    """Weak globularity axioms as a report, one line per failure."""
    problems = []
    flag, wit = fc.is_homotopically_discrete(x.x0)
    if not flag:
        problems.append("axiom (a): level zero is not homotopically discrete"
                        " (witness morphism %d)" % wit)
    for k, chain in ((2, x.pairs), (3, x.triples)):
        sides = ((chain.obj_label, x.x1.n_obj, x.d0.obj_map, x.d1.obj_map),
                 (chain.mor_label, x.x1.n_mor, x.d0.mor_map, x.d1.mor_map))
        if any(set(lab) != _strict_tuples(k, n, d0, d1) for lab, n, d0, d1 in sides):
            problems.append("axiom (b): level-%d Segal map is not an isomorphism" % k)
    if flag:
        sd = segal_data(x)
        for k, muhat in ((2, sd.muhat2), (3, sd.muhat3)):
            flags = fc.equivalence_flags(muhat)
            if not flags["is_equivalence"]:
                problems.append(
                    "axiom (c): induced level-%d Segal map is not an equivalence"
                    " (fully_faithful=%s, essentially_surjective=%s)"
                    % (k, flags["fully_faithful"], flags["essentially_surjective"]))
    else:
        problems.append("axiom (c): skipped, level zero could not be discretized")
    return problems


def _strict_tuples(k, count, d0, d1):
    """Every k-tuple of level-one elements (objects or morphisms) matching d0 to d1."""
    out = {(a,) for a in range(count)}
    for _ in range(k - 1):
        out = {t + (b,) for t in out for b in range(count) if d0[t[-1]] == d1[b]}
    return out


# ---------------------------------------------------------------------------
# Cleavages and the two retraction strategies


class Cleavage:
    """Chosen transports of horizontal arrows along vertical isomorphisms.

    For an arrow f and a vertical isomorphism phi : x -> src(f) the table
    holds a transported arrow with source exactly x and the same target,
    together with the connecting invertible cell onto f.
    """

    def __init__(self, x, table):
        self.x = x
        self.table = table

    def act(self, f, phi):
        return self.table[(f, phi)]


def build_cleavage(x):
    """Search a lawful cleavage, least transported arrow and cell first.

    Raises ValueError when some arrow has no transport along some vertical
    isomorphism; that is an honest obstruction of the instance, not a bug.
    """
    # the target stays put, so its cell component is an identity
    return Cleavage(x, an.transport_table(
        fc.discretize(x.x0), x.x1, x.d1, x.d0, lambda f, xo: x.d0.obj(f),
        "no transport of horizontal arrow %d along vertical isomorphism %d"))


def validate_cleavage(x, cl):
    """Cleavage laws by enumeration: identities, pasting, composition."""
    problems = []
    x0, x1 = x.x0, x.x1
    isos_into = {}
    for phi in range(x0.n_mor):
        if x0.is_iso(phi):
            isos_into.setdefault(x0.tgt[phi], []).append(phi)
    # transports missing or with wrong endpoints, reported once each
    broken = {(f, phi) for f in range(x1.n_obj) for phi in isos_into.get(x.d1.obj(f), ())
              if (f, phi) not in cl.table}
    problems.extend("no transport of (%d, %d)" % key for key in sorted(broken))
    for (f, phi), (g, lam) in cl.table.items():
        if x.d1.obj(g) != x0.src[phi] or x.d0.obj(g) != x.d0.obj(f):
            problems.append("transport of (%d, %d) has wrong endpoints" % (f, phi))
            broken.add((f, phi))
        if not x1.is_iso(lam) or x1.src[lam] != g or x1.tgt[lam] != f:
            problems.append("cell of (%d, %d) is not an isomorphism onto the arrow" % (f, phi))
        elif x.d1.mor(lam) != phi or x.d0.mor(lam) != x0.identity[x.d0.obj(f)]:
            problems.append("cell of (%d, %d) has the wrong vertical shadow" % (f, phi))
        if phi == x0.identity[x.d1.obj(f)] and (g != f or lam != x1.identity[f]):
            problems.append("identity transport of arrow %d is not trivial" % f)
    for (f, phi), (g, lam) in cl.table.items():
        for psi in range(x0.n_mor):
            if x0.tgt[psi] != x0.src[phi] or not x0.is_iso(psi):
                continue
            both = x0.compose(phi, psi)
            if (f, both) not in cl.table or (g, psi) not in cl.table:
                continue
            g2, lam2 = cl.table[(g, psi)]
            gb, lamb = cl.table[(f, both)]
            if gb != g2 or lamb != x1.compose(lam, lam2):
                problems.append("pasting law fails for arrow %d along (%d, %d)"
                                % (f, phi, psi))
    for i, (f, g) in enumerate(x.pairs.obj_label):
        c = x.comp.obj(i)
        for phi in isos_into.get(x.d1.obj(f), ()):
            if (f, phi) in broken or (c, phi) in broken:
                continue
            cf, lamf = cl.table[(f, phi)]
            cc, lamc = cl.table[(c, phi)]
            want = x.comp.obj(x.pairs.obj_id[(cf, g)])
            wantcell = x.comp.mor(x.pairs.mor_id[(lamf, x1.identity[g])])
            if cc != want or lamc != wantcell:
                problems.append("composition compatibility fails at pair %d along %d"
                                % (i, phi))
    return problems


@dataclass
class Retractions:
    strategy: str
    nu2: fc.FunctorMap
    counit2: fc.NatTransf
    nu3: fc.FunctorMap
    counit3: fc.NatTransf


def segal_retractions(x, sd, strategy="cleavage", cleavage=None):
    """Chosen pseudo-inverses nu_k to the induced Segal maps, with counits.

    strategy "cleavage" walks each gamma-composable tuple left to right,
    anchoring the first component and transporting the rest to start
    exactly where the previous one ends; components that are identity
    arrows are absorbed into the identity at the anchor instead of
    transported, and the connecting cells assemble into the counit.
    "retraction" uses the generic minimal-identity retraction.  Either way
    nu_k . muhat_k is the identity on the nose and the counit
    muhat_k . nu_k => Id is an invertible natural transformation.
    """
    def walks():
        cl = cleavage if cleavage is not None else build_cleavage(x)
        s0img = {x.s0.obj(o): o for o in range(x.x0.n_obj)}

        def step(a, anchor):
            if a in s0img:
                return x.s0.obj(anchor), x.s0.mor(an.only(x.x0.hom(anchor, s0img[a])))
            return cl.act(a, an.only(x.x0.hom(anchor, x.d1.obj(a))))

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


def tr2_strong_segalic(x, strategy="cleavage", cleavage=None):
    """Segalic pseudo-functor on the truncated ordinal site.

    Levels are the discretized level zero, level one, and the fiber products
    of gamma-composable tuples; the Segal maps of the result are identities
    by construction.  Faces act through the chosen section nu_k, spine maps
    act as strict projections, and the comparison cells absorb the
    difference.  Rejects instances that fail the globularity axioms.
    """
    problems = validate_catwg2(x)
    if problems:
        raise ValueError("not weakly globular: %s" % problems[0])
    sd = segal_data(x)
    retr = segal_retractions(x, sd, strategy, cleavage)
    site = ps.OrdinalSite(3)
    levels = {0: sd.x0d, 1: x.x1, 2: sd.hat2.cat, 3: sd.hat3.cat}
    e = {0: sd.gamma_section, 1: fc.identity_functor(x.x1),
         2: retr.nu2, 3: retr.nu3}
    ebar = {0: sd.gamma, 1: fc.identity_functor(x.x1),
            2: sd.muhat2, 3: sd.muhat3}
    counits = {2: retr.counit2, 3: retr.counit3}
    hats = {2: sd.hat2, 3: sd.hat3}
    transports, alphas, whisks = {}, {}, {}

    def spine_at(f):
        if f.src_rank == 1 and f.tgt_rank >= 2 and f.values[1] == f.values[0] + 1:
            return f.values[1]
        return None

    def transport(f):
        if f not in transports:
            transports[f] = fc.compose_functors(
                ebar[f.src_rank],
                fc.compose_functors(x.nerve_action(f), e[f.tgt_rank]))
        return transports[f]

    def action(f):
        j = spine_at(f)
        if j is not None:
            return hats[f.tgt_rank].projections[j - 1]
        return transport(f)

    def alpha(f):
        """Components of the chosen iso action(f) => transport(f), or None."""
        if f not in alphas:
            k = f.tgt_rank
            if site.is_identity(f) and f.src_rank >= 2:
                cat = levels[f.src_rank]
                alphas[f] = [cat.inverse(c) for c in counits[f.src_rank].components]
            else:
                j = spine_at(f)
                if j is None:
                    alphas[f] = None
                else:
                    lab = hats[k].mor_label
                    alphas[f] = [x.x1.inverse(lab[c][j - 1])
                                 for c in counits[k].components]
        return alphas[f]

    def whisker(f):
        # used when a composite passes through level zero
        if f not in whisks:
            whisks[f] = fc.compose_functors(ebar[f.src_rank], x.nerve_action(f))
        return whisks[f]

    def cell(g, f):
        a, b, c = f.src_rank, f.tgt_rank, g.tgt_rank
        gf = site.compose(g, f)
        hf = action(f)
        hg = action(g)
        hgf = action(gf) if not site.is_identity(gf) else fc.identity_functor(levels[a])
        bottom = levels[a]
        af, ag, agf = alpha(f), alpha(g), alpha(gf)
        tf = transport(f)
        comps = []
        for y in range(levels[c].n_obj):
            steps = []
            if af is not None:
                steps.append(af[hg.obj(y)])
            if ag is not None:
                steps.append(tf.mor(ag[y]))
            if b == 0:
                w = x.nerve_action(g).obj(e[c].obj(y))
                kap = an.only(x.x0.hom(sd.gamma_section.obj(sd.gamma.obj(w)), w))
                steps.append(whisker(f).mor(kap))
            if agf is not None:
                steps.append(bottom.inverse(agf[y]))
            if not steps:
                comps.append(bottom.identity[hf.obj(hg.obj(y))])
            else:
                total = steps[0]
                for nxt in steps[1:]:
                    total = bottom.compose(nxt, total)
                comps.append(total)
        return fc.NatTransf(fc.compose_functors(hf, hg), hgf, comps)

    diagram = ps.PseudoDiagram(site, levels.__getitem__, action, cell)
    return Tr2Result(x, sd, retr, diagram, strategy)


def _delta(i, k):
    """The injection [k-1] -> [k] that skips i."""
    return ds.SimplexMap(k - 1, k, tuple(v for v in range(k + 1) if v != i))


def tr2_map(fmap, res_src, res_tgt):
    """Induced map of strictified diagrams, with its face naturality report.

    Level zero is the map of classes, level one the horizontal component,
    and the higher levels act componentwise on composable tuples.  Squares
    over the tuple projections are then exact by construction; the report
    lists the remaining face squares that fail to commute on the nose,
    which happens exactly when the map does not carry the chosen section
    on the left to the one on the right.
    """
    sds, sdt = res_src.segal, res_tgt.segal
    class_map = [sdt.gamma.obj(fmap.f0.obj(sds.gamma_section.obj(c)))
                 for c in range(sds.x0d.n_obj)]
    comps = {0: fc.FunctorMap(sds.x0d, sdt.x0d, class_map, class_map),
             1: fmap.f1}
    for k, hat_s, hat_t in ((2, sds.hat2, sdt.hat2), (3, sds.hat3, sdt.hat3)):
        legs = [fc.compose_functors(fmap.f1, pr) for pr in hat_s.projections]
        comps[k] = fc.mediating_functor(hat_t, legs)
    report = []
    for k in (1, 2, 3):
        for i in range(k + 1):
            dmap = _delta(i, k)
            lhs = fc.compose_functors(comps[k - 1], res_src.diagram.action(dmap))
            rhs = fc.compose_functors(res_tgt.diagram.action(dmap), comps[k])
            if lhs != rhs:
                report.append("face square %d at level %d is not exact" % (i, k))
    return {"components": comps, "report": report}


def tr2_face_report(res):
    """Exactness of the semi-simplicial face identities of the diagram."""
    problems = []
    for k in (2, 3):
        for j in range(k + 1):
            for i in range(j):
                lhs = fc.compose_functors(res.diagram.action(_delta(i, k - 1)),
                                          res.diagram.action(_delta(j, k)))
                rhs = fc.compose_functors(res.diagram.action(_delta(j - 1, k - 1)),
                                          res.diagram.action(_delta(i, k)))
                if lhs != rhs:
                    problems.append("face identity (%d,%d) fails at level %d" % (i, j, k))
    return problems


def tr2_segal_report(res):
    """The Segal maps of the diagram, assembled from spine actions, are identities."""
    problems = []
    for k in (2, 3):
        hat = res.segal.hat2 if k == 2 else res.segal.hat3
        legs = [res.diagram.action(ds.SimplexMap(1, k, (j - 1, j)))
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


def validate_double_map(fmap):
    """Levelwise functor squares, as a violation list."""
    problems = []
    x, y = fmap.source, fmap.target
    for fun, tag in ((fmap.f0, "vertical"), (fmap.f1, "horizontal")):
        bad = fc.validate_functor(fun)
        if bad:
            problems.append("%s component is not a functor: %s" % (tag, bad[0]))
    ends = [name for name, dx, dy in (("source", x.d1, y.d1), ("target", x.d0, y.d0))
            if fc.compose_functors(dy, fmap.f1) != fc.compose_functors(fmap.f0, dx)]
    problems.extend("%s square does not commute" % name for name in ends)
    if fc.compose_functors(fmap.f1, x.s0) != fc.compose_functors(y.s0, fmap.f0):
        problems.append("identity square does not commute")
    # composable pairs only map to composable pairs when both ends commute
    if not ends and fc.compose_functors(y.comp, level_map(fmap, 2)) != \
            fc.compose_functors(fmap.f1, x.comp):
        problems.append("composition square does not commute")
    return problems


def level_map(fmap, k):
    """The induced functor on level k."""
    if k == 0:
        return fmap.f0
    legs = [fc.compose_functors(fmap.f1, pr) for pr in fmap.source.chain(k).projections]
    return fc.mediating_functor(fmap.target.chain(k), legs)


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


def pi1_map(fmap, p_src=None, p_tgt=None):
    """Functor induced on fundamental categories."""
    p_src = p_src if p_src is not None else pi1_double(fmap.source)
    p_tgt = p_tgt if p_tgt is not None else pi1_double(fmap.target)
    return an.pi1_map(p_src, p_tgt, fmap.f0, fmap.f1)


def hom_fiber(x, a, b):
    """Full subcategory of level one on arrows from class a to class b.

    Returns (category, inclusion into level one).
    """
    return an.hom_fiber(_anchored(x), a, b, fc.iso_classes(x.x0)[1])


def is_2equivalence_double(fmap):
    """Hom-fiber equivalences plus fundamental-category equivalence.

    The relaxed verdict replaces the fundamental-category equivalence by
    surjectivity on its objects, which the fiber conditions then upgrade.
    """
    x, y = fmap.source, fmap.target
    return an.is_2equivalence(_anchored(x), _anchored(y), pi1_double(x), pi1_double(y),
                              fmap.f0, fmap.f1)


# ---------------------------------------------------------------------------
# Rebasing level zero onto its discretization


@dataclass
class DiscretizedNerve:
    levels: list
    face: dict
    degen: dict
    comparison: list
    comparison_flags: list


def d2_construction(x):
    """The same nerve with level zero replaced by its discretization.

    Level-one faces are rebased through the class map and the bottom
    degeneracy through its section; all higher levels and maps are
    untouched.  The comparison back to the original nerve is levelwise an
    equivalence, witnessed by the returned flags.
    """
    sd = segal_data(x)
    levels = [sd.x0d] + [x.level(k) for k in (1, 2, 3)]
    face = {}
    for k in (1, 2, 3):
        for i in range(k + 1):
            fun = x.face(k, i)
            if k == 1:
                fun = fc.compose_functors(sd.gamma, fun)
            face[(k, i)] = fun
    degen = {(0, 0): fc.compose_functors(x.degen(0, 0), sd.gamma_section)}
    for k in (1, 2):
        for i in range(k + 1):
            degen[(k, i)] = x.degen(k, i)
    for i in (0, 1):
        back = fc.compose_functors(face[(1, i)], degen[(0, 0)])
        if back != fc.identity_functor(sd.x0d):
            wit = next(c for c in range(sd.x0d.n_obj)
                       if back.obj_map[c] != c or back.mor_map[c] != c)
            raise ValueError("rebased face %d does not undo the degeneracy at class %d"
                             % (i, wit))
    comparison = [sd.gamma_section] + [fc.identity_functor(lv) for lv in levels[1:]]
    flags = [fc.equivalence_flags(c) for c in comparison]
    return DiscretizedNerve(levels, face, degen, comparison, flags)


# ---------------------------------------------------------------------------
# Generators


def generate_from_surjection(base, assignment):
    """Double category of a surjection onto the objects of a base category.

    Level zero is the chaotic equivalence relation on the fibers of the
    assignment; horizontal arrows are triples (s, b, s2) with b a base
    morphism from the fiber of s to the fiber of s2, with a unique cell
    between triples exactly when they share b.  Returns the instance plus a
    lookup table for the triples.
    """
    ns = len(assignment)
    assignment = tuple(assignment)
    if set(assignment) != set(range(base.n_obj)):
        raise ValueError("assignment is not a surjection onto the base objects")

    m0_id = {}
    m0_src, m0_tgt = [], []
    for s in range(ns):
        for u in range(ns):
            if assignment[s] == assignment[u]:
                m0_id[(s, u)] = len(m0_src)
                m0_src.append(s)
                m0_tgt.append(u)
    comp0 = {}
    for (s, u), i in m0_id.items():
        for (u2, v), j in m0_id.items():
            if u2 == u:
                comp0[(j, i)] = m0_id[(s, v)]
    x0 = fc.FinCat(ns, m0_src, m0_tgt, [m0_id[(s, s)] for s in range(ns)], comp0)

    triples = []
    t_id = {}
    for s in range(ns):
        for s2 in range(ns):
            for b in base.hom(assignment[s], assignment[s2]):
                t_id[(s, b, s2)] = len(triples)
                triples.append((s, b, s2))
    m1_id = {}
    m1_src, m1_tgt = [], []
    for i, (s, b, s2) in enumerate(triples):
        for j, (u, b2, u2) in enumerate(triples):
            if b == b2:
                m1_id[(i, j)] = len(m1_src)
                m1_src.append(i)
                m1_tgt.append(j)
    comp1 = {}
    for (i, j), a in m1_id.items():
        for (j2, l), c in m1_id.items():
            if j2 == j:
                comp1[(c, a)] = m1_id[(i, l)]
    x1 = fc.FinCat(len(triples), m1_src, m1_tgt,
                   [m1_id[(i, i)] for i in range(len(triples))], comp1)

    d1 = fc.FunctorMap(x1, x0, [t[0] for t in triples],
                       [m0_id[(triples[m1_src[m]][0], triples[m1_tgt[m]][0])]
                        for m in range(len(m1_src))])
    d0 = fc.FunctorMap(x1, x0, [t[2] for t in triples],
                       [m0_id[(triples[m1_src[m]][2], triples[m1_tgt[m]][2])]
                        for m in range(len(m1_src))])
    s0 = fc.FunctorMap(
        x0, x1,
        [t_id[(s, base.identity[assignment[s]], s)] for s in range(ns)],
        [m1_id[(t_id[(m0_src[m], base.identity[assignment[m0_src[m]]], m0_src[m])],
                t_id[(m0_tgt[m], base.identity[assignment[m0_tgt[m]]], m0_tgt[m])])]
         for m in range(len(m0_src))])

    def compose_obj(i, j):
        s, b, _ = triples[i]
        _, b2, s3 = triples[j]
        return t_id[(s, base.compose(b2, b), s3)]

    def compose_mor(m, m2):
        return m1_id[(compose_obj(m1_src[m], m1_src[m2]),
                      compose_obj(m1_tgt[m], m1_tgt[m2]))]

    x = from_generators(x0, x1, d0, d1, s0, compose_obj, compose_mor)
    aux = {"base": base, "assignment": assignment,
           "triples": tuple(triples), "triple_id": t_id,
           "x0_mor_id": m0_id, "x1_mor_id": m1_id}
    return x, aux


def from_base_category(base):
    """The base category viewed as a double category with discrete level zero."""
    return generate_from_surjection(base, list(range(base.n_obj)))


def pi1_base_functor(x, aux, p=None):
    """Canonical comparison from the fundamental category onto the base."""
    p = p if p is not None else pi1_double(x)
    base = aux["base"]
    obj_map = [aux["assignment"][cls[0]] for cls in p.obj_classes]
    mor_map = [aux["triples"][cls[0]][1] for cls in p.arrow_classes]
    fun = fc.FunctorMap(p.cat, base, obj_map, mor_map)
    bad = fc.validate_functor(fun)
    if bad:
        raise ValueError("comparison onto the base is not a functor: %s" % bad[0])
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


def generate_random_hd(seed, max_classes=3, max_class_size=3):
    """Seeded homotopically discrete category: disjoint chaotic blocks."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, max_class_size)
             for _ in range(rng.randint(1, max_classes))]
    cat, _, _ = fc.disjoint_union([fc.chaotic(s) for s in sizes])
    return cat


def generate_random_wg(seed, max_base_objects=3, max_fiber=2):
    """Seeded weakly globular double category from a random thin base.

    With bounds (1, 1) this degenerates to the terminal instance.  Valid by
    construction, and from_generators re-checks anyway.
    """
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
