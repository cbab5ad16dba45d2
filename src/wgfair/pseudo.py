"""Pseudo-functor diagrams over finite index sites, with exact validation.

A diagram assigns a category to every site object and a contravariant functor
to every site map, together with invertible comparison cells measuring how
composition is preserved.  ``PseudoDiagram`` owns the shape of what it hands
out: identity maps act as identity functors, cells with an identity leg are
identities, every other cell has the components the caller gives, and an
action between the wrong levels or out of shape, or components that are not
one id per object, raise ValueError there.  Only actions are cached, as
validation reads each thousands of times and each cell's components once.

Validation is exact, with no sampling, and judges only the laws.  Each
action goes through ``fincat.validate_functor``, which decides composition
on the generators of its source level, and naturality squares are tried at
the generators of the level too.  On the site, the component endpoints,
naturality and invertibility of the cells are checked only at the pairs
whose first map is a generator, and coherence only at the triples whose
first map is a generator and whose other two maps are not identities.  A
wrong end elsewhere shows in that walk.  That decides every law: the coherence
law at (h, g, s) writes cell(h, g.s) through cells whose first map is
shorter, so by induction on that length every cell is a natural
isomorphism; triples with an identity leg hold because the cells with an
identity leg are identities; and the pentagon gives coherence at every
other triple.  ``validate_pseudo`` states the argument.  When a generator
check fails, the exhaustive check of that item runs and words the problems,
so the report is that of full enumeration.  Both use one coherence walk:
rows of pastings first, then triples only in a row that differs.  The site
is a numbered finite category, so diagrams and validation work on map
numbers and the site's composition table; only messages read the labels.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement

from . import deltasite as ds
from . import fincat as fc


class OrdinalSite:
    """Ordinals 0..max_level with all weakly increasing maps, as a numbered ``fc.FinCat``.

    ``maps[i]`` is the label (a ``deltasite.SimplexMap``) of morphism i of
    ``cat``, numbered by source, target and values in lexicographic order;
    ``index`` gives a label's number.  ``cat`` composes through a rule that
    looks up the composite's values, so a composite is found only when it is
    asked for, and reading ``cat.comp`` forces the whole table.
    """

    def __init__(self, max_level=3):
        if not isinstance(max_level, int) or max_level < 0:
            raise ValueError("max_level must be at least 0, not %r" % (max_level,))
        self.max_level = max_level
        self.objects = list(range(max_level + 1))
        self.maps = maps = [ds.SimplexMap(m, n, values) for m in self.objects for n in self.objects
                            for values in combinations_with_replacement(range(n + 1), m + 1)]
        self.index = {f: i for i, f in enumerate(maps)}
        # a map is its target rank and values; g after f reads g's values at f's
        by_values = {(f.tgt_rank, f.values): i for i, f in enumerate(maps)}

        def rule(g, f):
            values = maps[g].values
            return by_values[(maps[g].tgt_rank, tuple([values[v] for v in maps[f].values]))]

        self.cat = fc.FinCat(len(self.objects), [f.src_rank for f in maps],
                             [f.tgt_rank for f in maps],
                             [by_values[(a, tuple(range(a + 1)))] for a in self.objects],
                             rule=rule)

    def generators(self):
        """Numbers of the cofaces and codegeneracies; every other map is a composite of them."""
        return [self.index[s] for s in
                [ds.coface(i, n) for n in range(1, self.max_level + 1) for i in range(n + 1)]
                + [ds.codegeneracy(i, n) for n in range(self.max_level) for i in range(n + 1)]]


class PseudoDiagram:
    """Contravariant pseudo-functor on a finite site, normalized at identities.

    Site maps are the morphism numbers of ``site.cat``.  level_fn(a) gives
    the category at a site object; action_fn(f) the functor
    level(tgt f) -> level(src f); cell_fn(g, f) the components of the
    invertible comparison action(f) . action(g) => action(g after f), one
    morphism id per object of level(tgt g), or None for the identity.
    ``level`` is level_fn itself, which must return the same category object
    each time (a level keeps its ``fincat.generators``).  Only actions are
    cached, in a list indexed by number; components and cells are made and
    checked on every request.  Messages name each map by ``site.maps[f]``.

    ``action`` (so ``components`` and ``cell`` too) refuses a map that is not
    an int in 0..len(site.maps)-1 with ValueError naming it and the site's
    size, answers an identity with the identity functor, and raises
    ValueError("action of f has wrong endpoints") for a functor between the
    wrong levels and ValueError("action of f: ...") with ``fincat``'s
    wording for maps out of shape.  ``components`` (so ``cell``) refuses a
    pair that does not compose with ValueError("site maps g after f are not
    composable"), answers a pair with an identity leg with identities,
    without asking cell_fn, and raises ValueError("cell at (g, f): ...")
    with ``fincat.validate_nat``'s wording when the components are not one
    id per object; ``cell`` builds the ``NatTransf`` between its two actions.
    """

    def __init__(self, site, level_fn, action_fn, cell_fn):
        self.site = site
        self.level = level_fn
        self._action_fn = action_fn
        self._cell_fn = cell_fn
        self._actions = [None] * len(site.maps)

    def action(self, f):
        acts = self._actions
        if not isinstance(f, int) or not 0 <= f < len(acts):
            raise ValueError("site map %r is not one of the %d map numbers" % (f, len(acts)))
        act = acts[f]
        if act is None:
            cat = self.site.cat
            if f == cat.identity[cat.src[f]]:
                act = fc.identity_functor(self.level(cat.src[f]))
            else:
                act = self._action_fn(f)
                if act.source != self.level(cat.tgt[f]) or act.target != self.level(cat.src[f]):
                    raise ValueError("action of %r has wrong endpoints" % (self.site.maps[f],))
                try:
                    fc._check_functor_shape(act)
                except ValueError as err:
                    raise ValueError("action of %r: %s" % (self.site.maps[f], err)) from None
            acts[f] = act
        return act

    def components(self, g, f):
        """Components of cell(g, f) as a tuple: one morphism id per object of level(tgt g)."""
        af, ag = self.action(f), self.action(g)
        maps, cat = self.site.maps, self.site.cat
        if cat.src[g] != cat.tgt[f]:
            raise ValueError("site maps %r after %r are not composable" % (maps[g], maps[f]))
        leg = f == cat.identity[cat.src[f]] or g == cat.identity[cat.src[g]]
        comps = None if leg else self._cell_fn(g, f)
        if comps is None:
            if leg and fc.compose_functors(af, ag) != self.action(cat.compose(g, f)):
                raise ValueError("identity-leg cell at (%r, %r): the composite action is not"
                                 " the action of the composite" % (maps[g], maps[f]))
            ident, fo = af.target.identity, af.obj_map
            return tuple([ident[fo[y]] for y in ag.obj_map])
        comps = tuple(comps)
        try:
            fc._check_components(comps, ag.source.n_obj, af.target.n_mor)
        except ValueError as err:
            raise ValueError("cell at (%r, %r): %s" % (maps[g], maps[f], err)) from None
        return comps

    def cell(self, g, f):
        """Comparison action(f) . action(g) => action(g after f), built on every request."""
        comps = self.components(g, f)
        return fc.NatTransf(fc.compose_functors(self.action(f), self.action(g)),
                            self.action(self.site.cat.compose(g, f)), comps)


def validate_pseudo(diagram, coherence=True, max_problems=20):
    """Check the pseudo-functor laws exactly; list of problems.

    The diagram must be a ``PseudoDiagram`` (ValueError naming its type
    otherwise), so identities act as identities, cells with an identity leg
    are identities and every cell runs between its own two actions, each
    with one component per object; an action between the wrong levels or
    with maps out of shape, or a cell with components out of shape, raises
    ValueError naming it when it is first read.  What is reported is the
    laws: every action is a functor, every comparison cell is an invertible
    natural transformation (a component with wrong endpoints is a
    naturality failure, as in ``fincat.validate_nat``), and (unless
    coherence=False) the two ways of pasting cells agree on every
    composable triple of site maps.

    Precondition: every level is a category (the ``FinCat`` contract), and
    the site's generators generate its maps (``OrdinalSite.generators``).
    The answer is the one of the exhaustive walk, but laws are checked on
    generators:

    - Every action goes through ``fincat.validate_functor``, which checks
      endpoints and identities in full and composition on the generators
      of the action's source level; its docstring gives why that is exact.
    - While no action problem has been recorded, every action is a functor,
      so a cell's naturality squares are checked at the generators of its
      source level only (``fincat.generators``, kept on the level): squares
      paste.
    - With coherence and no action problem, one pass over the composable
      pairs checks the endpoints of each component, naturality and
      invertibility only at the pairs (g, s) whose first map s is a
      generator of the site.  It reads the cells' components
      (``PseudoDiagram.components``) and the actions' maps, so a square
      reads the composite action only at a generator; a cell is built, for
      ``fincat.validate_nat`` to word, only where a check fails.  The
      coherence walk then takes only generators as first maps and skips
      triples with an identity second or third map.  If all of that passes,
      every law holds at every pair and triple:

      * Every component has the right ends.  A cell with an identity leg
        is built with them, and one whose first map is a generator is
        checked.  Any other first map is g'.s with s a generator and g' not
        an identity, and the walk at (g, g', s) composes cell(g, g'.s) at y
        after cell(g', s) at F(g)y, whose target F(g'.s)F(g)y is the right
        source; the two pastings compose and agree only if the target is
        F(g.g'.s)y, that of cell(g.g', s) at y.
      * Every cell is a natural isomorphism, by induction on the length of
        its first map as a word in the generators.  A cell with an identity
        leg is an identity, so natural and invertible.  Any other first map
        is g.s with s a generator and g shorter, and the law at (h, g, s)
        gives, object by object,
        cell(h, g.s) = [cell(h.g, s) . F(s)cell(h, g)] . (cell(g, s) at F(h))^-1,
        a composite of natural isomorphisms and their whiskerings by
        functors.
      * A triple with an identity leg holds on its own because the cells
        with an identity leg are identities: the pastings reduce to the
        same cell.  A triple with an identity first map is one of these.
      * For composable k, h, g, s the pentagon of their five bracketings
        gives the law at (k, h, g.s) from those at (h, g, s), (k.h, g, s),
        (k, h.g, s) and (k, h, g), given natural invertible cells; induct
        on the length of the first map.

    Whenever one of these finds a failure, the exhaustive check of that item
    (the full walk inside ``fincat.validate_functor``,
    ``fincat.validate_nat``, or the pair checks and coherence walk at every
    pair and triple) writes the messages, so the list, its order and its
    truncation are those of the exhaustive walk.  Problems are listed in
    visiting order (pairs by f, then g; triples by f, then g, then h) and
    the list stops at max_problems entries; a max_problems below one stops
    at the first problem.  Triples whose pastings do not compose (they read
    a component with wrong endpoints, already reported) are skipped.  The
    decision and the report share one coherence walk: for each f and g the
    pastings of every h are compared as one row first, and only a row that
    differs or does not compose is walked triple by triple.
    """
    if not isinstance(diagram, PseudoDiagram):
        raise ValueError("validate_pseudo takes a PseudoDiagram, not %s"
                         % type(diagram).__name__)
    site = diagram.site
    problems = []

    def note(msg):
        problems.append(msg)
        return len(problems) >= max_problems

    # pairs and triples read flat lists indexed by g*n + f in the site's
    # numbering of its maps; messages name the maps by their labels
    cat, maps = site.cat, site.maps
    n, src, tgt = len(maps), cat.src, cat.tgt
    # maps out of each object, in the order of their targets and homs
    out_of = {a: [i for i in range(n) if src[i] == a] for a in site.objects}
    acts = []
    for f in range(n):
        acts.append(diagram.action(f))
        bad = fc.validate_functor(acts[-1])
        if bad and note("action of %r is not a functor: %s" % (maps[f], bad[0])):
            return problems
    lawful = not problems
    # the pair pass reads every composite, so the site's table is forced once
    table = cat.comp
    after, comps_of = [None] * (n * n), [None] * (n * n)

    def pair_problems(checked_at):
        """Cell problems pair by pair, f then g each in hom order; fills after and comps_of.

        Component endpoints, naturality and invertibility are checked at the
        pairs whose first map is numbered in checked_at.
        """
        for fi in range(n):
            fo, fm, bottom = acts[fi].obj_map, acts[fi].mor_map, acts[fi].target
            src_of, tgt_of, get = bottom.src.__getitem__, bottom.tgt.__getitem__, bottom.comp.get
            checked = fi in checked_at
            for gi in out_of[tgt[fi]]:
                k = gi * n + fi
                gf = after[k] = table[(gi, fi)]
                comps = comps_of[k] = diagram.components(gi, fi)
                # each component runs from action(f) . action(g) to action(g.f) at its object
                ok = lawful and (not checked or (
                    list(map(src_of, comps)) == [fo[y] for y in acts[gi].obj_map]
                    and tuple(map(tgt_of, comps)) == acts[gf].obj_map))
                if ok and checked:
                    # the squares at the generators of level(tgt g) paste to every square
                    level, gm, tm = diagram.level(tgt[gi]), acts[gi].mor_map, acts[gf].mor_map
                    ok = all(get((tm[m], comps[level.src[m]]))
                             == get((comps[level.tgt[m]], fm[gm[m]]))
                             for m in fc.generators(level))
                if not ok:
                    bad = fc.validate_nat(diagram.cell(gi, fi))
                    if bad:
                        yield "cell at (%r, %r) is not natural: %s" % (maps[gi], maps[fi], bad[0])
                        continue
                if checked and not all(map(bottom.is_iso, comps)):
                    yield "cell at (%r, %r) is not invertible" % (maps[gi], maps[fi])

    def failures(firsts, outs):
        """Failing triples as (h, g, f, object), f in firsts, g and h in outs, by f, g, h.

        object is None where the pastings do not compose.  Rows (the
        pastings of every h for one f and g, joined in the order of h) are
        compared first; only a row that differs or does not compose is
        walked triple by triple.
        """
        obj_row = {a: [x for hi in outs[a] for x in acts[hi].obj_map] for a in site.objects}
        # cell(h, j) and h.j for every h out of the target of j
        cell_row, after_row = [], []
        for j in range(n):
            hs = outs[tgt[j]]
            cell_row.append(list(chain.from_iterable(comps_of[hi * n + j] for hi in hs)))
            after_row.append([after[hi * n + j] for hi in hs])
        for fi in firsts:
            get = diagram.level(src[fi]).comp.__getitem__
            af = acts[fi].mor_map.__getitem__
            for gi in outs[tgt[fi]]:
                gf = after[gi * n + fi]
                inner = comps_of[gi * n + fi].__getitem__
                try:
                    if (list(map(get, zip(cell_row[gf], map(inner, obj_row[tgt[gi]]))))
                            == list(map(get, zip(chain.from_iterable(
                                [comps_of[hg * n + fi] for hg in after_row[gi]]),
                                map(af, cell_row[gi]))))):
                        continue
                except KeyError:
                    pass
                for hi in outs[tgt[gi]]:
                    # cell(h, g.f) after cell(g, f) whiskered by h, against
                    # cell(h.g, f) after cell(h, g) whiskered by f, per object
                    try:
                        one = list(map(get, zip(comps_of[hi * n + gf],
                                                map(inner, acts[hi].obj_map))))
                        two = list(map(get, zip(comps_of[after[hi * n + gi] * n + fi],
                                                map(af, comps_of[hi * n + gi]))))
                    except KeyError:
                        yield hi, gi, fi, None
                        continue
                    if one != two:
                        for y, (u, v) in enumerate(zip(one, two)):
                            if u != v:
                                yield hi, gi, fi, y

    if coherence and lawful:
        gens = sorted(site.generators())
        units = set(cat.identity)
        outs = {a: [i for i in out_of[a] if i not in units] for a in site.objects}
        try:
            holds = next(chain(pair_problems(set(gens)), failures(gens, outs)), None) is None
        except ValueError:
            # the exhaustive pass below raises it again, or stops before
            holds = False
        if holds:
            return problems
    for msg in pair_problems(range(n)):
        if note(msg):
            return problems
    if coherence:
        for hi, gi, fi, y in failures(range(n), out_of):
            # a triple whose pastings do not compose reads a cell reported above
            if y is not None and note("coherence fails at (%r, %r, %r) on object %d"
                                      % (maps[hi], maps[gi], maps[fi], y)):
                return problems
    return problems
