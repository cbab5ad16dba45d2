"""Pseudo-functor diagrams over finite index sites, with exact validation.

A diagram assigns a category to every site object and a contravariant functor
to every site map, together with invertible comparison cells measuring how
composition is preserved.  Identity maps act as identity functors and cells
with an identity leg are identities; everything else is checked by explicit
enumeration, which is the whole point.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import deltasite as ds
from . import fincat as fc


class OrdinalSite:
    """Ordinals 0..max_level with all weakly increasing maps."""

    def __init__(self, max_level=3):
        self.max_level = max_level
        self.objects = list(range(max_level + 1))
        self._hom = {}
        self._comp = {}

    def hom(self, m, n):
        if (m, n) not in self._hom:
            self._hom[(m, n)] = [
                ds.SimplexMap(m, n, values)
                for values in combinations_with_replacement(range(n + 1), m + 1)
            ]
        return self._hom[(m, n)]

    def compose(self, g, f):
        # memoized; validation loops compose the same few thousand pairs a lot
        cached = self._comp.get((g, f))
        if cached is None:
            cached = self._comp[(g, f)] = ds.compose_simplex(g, f)
        return cached

    def identity(self, a):
        return ds.identity_simplex(a)

    def src(self, f):
        return f.src_rank

    def tgt(self, f):
        return f.tgt_rank

    def is_identity(self, f):
        return f == ds.identity_simplex(f.src_rank)


class PseudoDiagram:
    """Contravariant pseudo-functor on a finite site, normalized at identities.

    level_fn(a) gives the category at a site object; action_fn(f) the functor
    level(tgt f) -> level(src f); cell_fn(g, f) the invertible comparison
    action(f) . action(g) => action(g after f), or None for the identity.
    Results are cached; consumers should go through level/action/cell.
    """

    def __init__(self, site, level_fn, action_fn, cell_fn):
        self.site = site
        self._level_fn = level_fn
        self._action_fn = action_fn
        self._cell_fn = cell_fn
        self._levels = {}
        self._actions = {}
        self._cells = {}

    def level(self, a):
        if a not in self._levels:
            self._levels[a] = self._level_fn(a)
        return self._levels[a]

    def action(self, f):
        if f not in self._actions:
            if self.site.is_identity(f):
                self._actions[f] = fc.identity_functor(self.level(self.site.src(f)))
            else:
                self._actions[f] = self._action_fn(f)
        return self._actions[f]

    def cell(self, g, f):
        """Comparison action(f) . action(g) => action(g after f)."""
        key = (g, f)
        if key not in self._cells:
            if self.site.is_identity(f) or self.site.is_identity(g):
                composite = fc.compose_functors(self.action(f), self.action(g))
                target = self.action(self.site.compose(g, f))
                if composite != target:
                    raise ValueError("identity-leg cell at (%r, %r): the composite"
                                     " action is not the action of the composite" % (g, f))
                self._cells[key] = fc.NatTransf(
                    composite, target,
                    [composite.target.identity[x] for x in composite.obj_map])
            else:
                made = self._cell_fn(g, f)
                if made is None:
                    composite = fc.compose_functors(self.action(f), self.action(g))
                    made = fc.NatTransf(
                        composite, self.action(self.site.compose(g, f)),
                        [composite.target.identity[x] for x in composite.obj_map])
                self._cells[key] = made
        return self._cells[key]


def composable_pairs(site):
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                for c in site.objects:
                    for g in site.hom(b, c):
                        yield g, f


def composable_triples(site):
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                for c in site.objects:
                    for g in site.hom(b, c):
                        for d in site.objects:
                            for h in site.hom(c, d):
                                yield h, g, f


def validate_pseudo(diagram, coherence=True, max_problems=20):
    """Exhaustively check the pseudo-functor axioms; list of problems.

    Checks every action is a functor with the right endpoints, identities act
    as identities, every comparison cell is an invertible natural
    transformation with the right endpoints and identity legs give identity
    cells, and (unless coherence=False) the two ways of pasting cells agree
    on every composable triple of site maps.
    """
    site = diagram.site
    problems = []

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    for a in site.objects:
        ident = site.identity(a)
        if diagram.action(ident) != fc.identity_functor(diagram.level(a)):
            if note("identity of %r does not act as the identity functor" % (a,)):
                return problems
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                act = diagram.action(f)
                if act.source != diagram.level(b) or act.target != diagram.level(a):
                    if note("action of %r has wrong endpoints" % (f,)):
                        return problems
                    continue
                bad = fc.validate_functor(act)
                if bad:
                    if note("action of %r is not a functor: %s" % (f, bad[0])):
                        return problems

    for g, f in composable_pairs(site):
        cell = diagram.cell(g, f)
        composite = fc.compose_functors(diagram.action(f), diagram.action(g))
        target = diagram.action(site.compose(g, f))
        if cell.source != composite or cell.target != target:
            if note("cell at (%r, %r) has wrong endpoints" % (g, f)):
                return problems
            continue
        bad = fc.validate_nat(cell)
        if bad:
            if note("cell at (%r, %r) is not natural: %s" % (g, f, bad[0])):
                return problems
            continue
        dcat = cell.source.target
        if not all(dcat.is_iso(c) for c in cell.components):
            if note("cell at (%r, %r) is not invertible" % (g, f)):
                return problems
        if (site.is_identity(f) or site.is_identity(g)) and any(
                c != composite.target.identity[composite.obj_map[x]]
                for x, c in enumerate(cell.components)):
            if note("cell with an identity leg at (%r, %r) is not the identity" % (g, f)):
                return problems

    if coherence:
        comps = {a: diagram.level(a).comp for a in site.objects}
        for h, g, f in composable_triples(site):
            gf = site.compose(g, f)
            hg = site.compose(h, g)
            act_f, act_h = diagram.action(f), diagram.action(h)
            cell_gf = diagram.cell(g, f)
            cell_h_gf = diagram.cell(h, gf)
            cell_hg = diagram.cell(h, g)
            cell_hg_f = diagram.cell(hg, f)
            top = diagram.level(site.tgt(h))
            comp = comps[site.src(f)]
            outer, inner = cell_h_gf.components, cell_gf.components
            outer2, inner2 = cell_hg_f.components, cell_hg.components
            ah, af = act_h.obj_map, act_f.mor_map
            for y in range(top.n_obj):
                one = comp[(outer[y], inner[ah[y]])]
                two = comp[(outer2[y], af[inner2[y]])]
                if one != two:
                    if note("coherence fails at (%r, %r, %r) on object %d" % (h, g, f, y)):
                        break
            if len(problems) >= max_problems:
                return problems
    return problems


def is_strict(diagram):
    """True when every action composes on the nose and every cell is identity."""
    site = diagram.site
    for g, f in composable_pairs(site):
        composite = fc.compose_functors(diagram.action(f), diagram.action(g))
        if composite != diagram.action(site.compose(g, f)):
            return False
        cell = diagram.cell(g, f)
        if any(c != composite.target.identity[composite.obj_map[x]]
               for x, c in enumerate(cell.components)):
            return False
    return True
