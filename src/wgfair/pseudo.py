"""Pseudo-functor diagrams over finite index sites, with exact validation.

A diagram assigns a category to every site object and a contravariant functor
to every site map, together with invertible comparison cells measuring how
composition is preserved.  Identity maps act as identity functors and cells
with an identity leg are identities.

Validation is exact, with no sampling.  Endpoints, identities, invertibility
and identity legs are checked on every map, pair and object.  Each action
goes through ``fincat.validate_functor``, which decides composition on the
generators of its source level.  Naturality of cells and coherence are
checked on generators too (of the levels, and of the site), which decides
the same laws because every level is a category; ``validate_pseudo`` states
why.  When a generator check fails, the exhaustive check of that item runs
and words the problems, so the report is that of full enumeration.
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
        return f.src_rank == f.tgt_rank and f.values == tuple(range(f.src_rank + 1))

    def generators(self):
        """The cofaces and codegeneracies; every other map is a composite of them."""
        return ([ds.coface(i, n) for n in range(1, self.max_level + 1) for i in range(n + 1)]
                + [ds.codegeneracy(i, n) for n in range(self.max_level) for i in range(n + 1)])


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
            leg = self.site.is_identity(f) or self.site.is_identity(g)
            made = None if leg else self._cell_fn(g, f)
            if made is None:
                composite = fc.compose_functors(self.action(f), self.action(g))
                target = self.action(self.site.compose(g, f))
                if leg and composite != target:
                    raise ValueError("identity-leg cell at (%r, %r): the composite"
                                     " action is not the action of the composite" % (g, f))
                made = fc.NatTransf(composite, target,
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


def _is_natural_on(nat, squares):
    """Whether nat is natural, with squares tried only at the given morphisms.

    Both functors must be lawful and parallel: then squares paste, and
    squares at a generating set give naturality everywhere.  Components out
    of shape give False, so ``fincat.validate_nat`` can word the failure.
    """
    f, g = nat.source, nat.target
    b = f.target
    comps = nat.components
    if len(comps) != f.source.n_obj or (comps and not 0 <= min(comps) <= max(comps) < b.n_mor):
        return False
    fo, go = f.obj_map, g.obj_map
    if any(b.src[c] != fo[x] or b.tgt[c] != go[x] for x, c in enumerate(comps)):
        return False
    get, fm, gm = b.comp.get, f.mor_map, g.mor_map
    return all(get((gm[m], comps[x])) == get((comps[y], fm[m])) for m, x, y in squares)


def validate_pseudo(diagram, coherence=True, max_problems=20):
    """Check the pseudo-functor axioms exactly; list of problems.

    Checks every action is a functor with the right endpoints, identities act
    as identities, every comparison cell is an invertible natural
    transformation with the right endpoints and identity legs give identity
    cells, and (unless coherence=False) the two ways of pasting cells agree
    on every composable triple of site maps.

    Precondition: every level is a category (the ``FinCat`` contract).  The
    answer is the one of the exhaustive walk, but three laws are checked on
    generators:

    - Every action goes through ``fincat.validate_functor``, which checks
      endpoints and identities in full and composition on the generators
      of the action's source level; its docstring gives why that is exact.
    - While no problem has been recorded, every action is a functor, so a
      cell's naturality squares are checked at the generators of its source
      level only, computed once per level per call: squares paste.
    - If the pair checks recorded no problem, the coherence walk first takes
      as its first map f only identities and the site's generators
      (``OrdinalSite.generators``); if those triples all pass, every triple
      does.  For composable k, h, g, f the pentagon of their five
      bracketings gives the law at (k, h, g.f) from those at (h, g, f),
      (k.h, g, f), (k, h.g, f) and (k, h, g), given natural invertible
      cells that are identities on identity legs; induct on the length of
      the first map.

    Whenever one of these finds a failure, the exhaustive check of that item
    (the full walk inside ``fincat.validate_functor``,
    ``fincat.validate_nat``, or the coherence walk over every first map)
    writes the messages, so the list, its order and its truncation are those
    of the exhaustive walk.  Problems are listed in visiting order (triples
    by f, then g, then h) and the list stops at max_problems entries; a
    max_problems below one stops at the first problem.  Pairs and triples
    that read an action reported with wrong endpoints are skipped, and so
    are triples whose pastings do not compose (a cell already reported as
    malformed).  For the coherence check the site maps are numbered once per
    call, and the actions and cells it reads are put into flat lists indexed
    by those numbers.
    """
    site = diagram.site
    problems = []
    squares = {}

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    def level_squares(a):
        """The level's generators with their endpoints: the squares to try."""
        if a not in squares:
            cat = diagram.level(a)
            squares[a] = [(s, cat.src[s], cat.tgt[s]) for s in fc.generators(cat)]
        return squares[a]

    for a in site.objects:
        ident = site.identity(a)
        if diagram.action(ident) != fc.identity_functor(diagram.level(a)):
            if note("identity of %r does not act as the identity functor" % (a,)):
                return problems
    broken = set()
    for a in site.objects:
        for b in site.objects:
            for f in site.hom(a, b):
                act = diagram.action(f)
                if act.source != diagram.level(b) or act.target != diagram.level(a):
                    broken.add(f)
                    if note("action of %r has wrong endpoints" % (f,)):
                        return problems
                    continue
                bad = fc.validate_functor(act)
                if bad and note("action of %r is not a functor: %s" % (f, bad[0])):
                    return problems

    for g, f in composable_pairs(site):
        gf = site.compose(g, f)
        if broken and (f in broken or g in broken or gf in broken):
            continue
        cell = diagram.cell(g, f)
        composite = fc.compose_functors(diagram.action(f), diagram.action(g))
        target = diagram.action(gf)
        if cell.source != composite or cell.target != target:
            if note("cell at (%r, %r) has wrong endpoints" % (g, f)):
                return problems
            continue
        if problems or not _is_natural_on(cell, level_squares(site.tgt(g))):
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
        # number the site maps once: the triple walk then reads flat lists
        # indexed by g*n + f instead of hashing the maps themselves
        maps = [f for a in site.objects for b in site.objects for f in site.hom(a, b)]
        n = len(maps)
        index = {f: i for i, f in enumerate(maps)}
        # maps out of each object, in the order of their targets and homs
        out_of = {a: [i for i, f in enumerate(maps) if site.src(f) == a]
                  for a in site.objects}
        acts = [diagram.action(f) for f in maps]
        obj_maps = [act.obj_map for act in acts]
        mor_maps = [act.mor_map for act in acts]
        # triples reading an action with wrong endpoints are skipped, as pairs are
        ok = [f not in broken for f in maps]
        after, comps_of = [None] * (n * n), [None] * (n * n)
        for fi, f in enumerate(maps):
            for gi in out_of[site.tgt(f)]:
                k = gi * n + fi
                after[k] = index[site.compose(maps[gi], f)]
                if ok[fi] and ok[gi] and ok[after[k]]:
                    comps_of[k] = diagram.cell(maps[gi], f).components

        def failures(firsts):
            """(h, g, f, object) of every failing triple whose f is numbered in firsts."""
            for fi in firsts:
                f = maps[fi]
                get = diagram.level(site.src(f)).comp.__getitem__
                af = mor_maps[fi].__getitem__
                for gi in out_of[site.tgt(f)]:
                    gf = after[gi * n + fi]
                    if comps_of[gi * n + fi] is None:
                        continue
                    inner = comps_of[gi * n + fi].__getitem__
                    hs = out_of[site.tgt(maps[gi])]
                    if broken:
                        hs = [hi for hi in hs if ok[hi] and ok[after[hi * n + gi]]
                              and ok[after[hi * n + gf]]]
                    for hi in hs:
                        # cell(h, g.f) after cell(g, f) whiskered by h, against
                        # cell(h.g, f) after cell(h, g) whiskered by f, per object
                        try:
                            one = list(map(get, zip(comps_of[hi * n + gf],
                                                    map(inner, obj_maps[hi]))))
                            two = list(map(get, zip(comps_of[after[hi * n + gi] * n + fi],
                                                    map(af, comps_of[hi * n + gi]))))
                        except KeyError:
                            # a cell reported above does not compose: no pasting
                            continue
                        if one != two:
                            for y, (u, v) in enumerate(zip(one, two)):
                                if u != v:
                                    yield hi, gi, fi, y

        if not problems:
            gens = set(site.generators())
            firsts = [i for i, f in enumerate(maps) if f in gens or site.is_identity(f)]
            if next(failures(firsts), None) is None:
                return problems
        for hi, gi, fi, y in failures(range(n)):
            if note("coherence fails at (%r, %r, %r) on object %d"
                    % (maps[hi], maps[gi], maps[fi], y)):
                return problems
    return problems
