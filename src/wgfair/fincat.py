"""Exact finite categories with dense integer ids.

Objects of a category are 0..n_obj-1 and morphisms 0..n_mor-1; source, target,
identity and composition are lookup tables.  Everything downstream (double
categories, fair structures, the comparison functors) is built out of these,
so all checks here are brute force and exact.

Composition contract: a category holds either a full table or a rule that
computes one entry at a time (fiber products compose componentwise through
their factors).  ``compose`` and ``inverse`` only ever work entry by entry
and remember the entries they compute, so they never force the table;
reading ``comp`` yields the complete plain dict, built once on first read in
the order of a full enumeration (for each f, the g composable after it).
A fiber product also carries an inverse rule: its morphism is inverted by
inverting each component in its factor, so ``inverse`` builds no hom table
and forces no composite there.
``iso_classes`` asks ``is_iso`` only of morphisms between two classes it
has not joined yet, so it forces no composite inside a class; like
``generators``, the classes are computed once per category and kept on it.
``validate_functor`` decides composition on generators, entry by entry, so
it forces no table either; only a functor that breaks a law is walked in
full.

Thin categories, ``discrete`` and ``chaotic`` too, come from
``thin_from_preorder``, one morphism per pair numbered in sorted pair order.

Chains of composable tuples are ``FiberChain`` values.  Rank one is the
chain of a single factor, ``single_chain``: the category itself with 1-tuple
labels, so code over levels of any positive rank needs no one-edge branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class FinCat:
    """A finite category.  ``comp[(g, f)]`` is the composite g-after-f.

    Give either ``comp``, the full table, or ``rule(g, f)``, which returns
    the composite of a composable pair.  A rule-backed category memoizes
    the entries ``compose`` asks for; its ``comp`` property fills in the
    whole table on first read and keeps it.

    ``inverse`` scans the hom set back for a two-sided inverse, unless an
    ``inverse_rule(m)`` is given, which returns the inverse of m or None;
    either way each answer is kept.  Inverses in a category are unique, so
    a correct rule gives what the scan would.
    """

    __slots__ = ("n_obj", "src", "tgt", "identity", "_comp", "_rule", "_inverse_rule", "_hom",
                 "_inv", "_gens", "_isos")

    def __init__(self, n_obj, src, tgt, identity, comp=None, rule=None, inverse_rule=None):
        if (comp is None) == (rule is None):
            raise ValueError("give exactly one of a composition table and a rule")
        self.n_obj = n_obj
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.identity = tuple(identity)
        self._comp = {} if comp is None else dict(comp)
        self._rule = rule
        self._inverse_rule = inverse_rule
        self._hom = None
        self._inv = {}
        self._gens = None
        self._isos = None

    @property
    def n_mor(self):
        return len(self.src)

    @property
    def comp(self):
        """The complete composition table as a plain dict."""
        if self._rule is not None:
            memo, rule = self._comp, self._rule
            by_src = {}
            for g, x in enumerate(self.src):
                by_src.setdefault(x, []).append(g)
            table = {}
            for f, y in enumerate(self.tgt):
                for g in by_src.get(y, ()):
                    h = memo.get((g, f))
                    table[(g, f)] = rule(g, f) if h is None else h
            self._comp, self._rule = table, None
        return self._comp

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FinCat)
                and self.n_obj == other.n_obj
                and self.src == other.src
                and self.tgt == other.tgt
                and self.identity == other.identity
                and self.comp == other.comp)

    def __repr__(self):
        return "FinCat(%d obj, %d mor)" % (self.n_obj, self.n_mor)

    def hom(self, x, y):
        if self._hom is None:
            table = {}
            for m in range(self.n_mor):
                table.setdefault((self.src[m], self.tgt[m]), []).append(m)
            self._hom = {k: tuple(v) for k, v in table.items()}
        try:
            return self._hom[(x, y)]
        except (KeyError, TypeError):    # no morphisms x -> y, or no objects x, y
            if x in range(self.n_obj) and y in range(self.n_obj):
                return ()
        raise ValueError("objects %r, %r are not both among the %d objects" % (x, y, self.n_obj))

    def _entry(self, g, f):
        """The composite g after f from the table or the rule, or None (also for a non-id)."""
        try:
            h = self._comp.get((g, f))
            composable = h is None and self._rule is not None and \
                0 <= g and 0 <= f and self.src[g] == self.tgt[f]
        except (IndexError, TypeError):    # g or f is not a morphism id
            return None
        if composable:
            h = self._comp[(g, f)] = self._rule(g, f)
        return h

    def compose(self, g, f):
        """g after f; ValueError if the pair is not composable."""
        try:
            h = self._comp.get((g, f))
        except TypeError:    # an unhashable g or f, which _entry turns down
            h = None
        if h is None and (h := self._entry(g, f)) is None:
            raise ValueError("morphisms %r after %r are not composable" % (g, f))
        return h

    def inverse(self, m):
        """Two-sided inverse of m, or None; ValueError when m is not a morphism id."""
        try:
            return self._inv[m]
        except (KeyError, TypeError):    # not asked before, or not a morphism id
            if not isinstance(m, int) or not 0 <= m < len(self.src):
                raise ValueError("morphism %r is not one of the %d morphisms"
                                 % (m, len(self.src))) from None
        if self._inverse_rule is not None:
            found = self._inverse_rule(m)
        else:
            x, y = self.src[m], self.tgt[m]
            found = None
            for n in self.hom(y, x):
                if (self._entry(n, m) == self.identity[x]
                        and self._entry(m, n) == self.identity[y]):
                    found = n
                    break
        self._inv[m] = found
        return found

    def is_iso(self, m):
        return self.inverse(m) is not None


def discrete(n):
    """Only identities: the thin category of the discrete preorder."""
    return thin_from_preorder(n, [(x, x) for x in range(n)])


def chaotic(n):
    """Exactly one morphism between each ordered pair of objects."""
    return thin_from_preorder(n, itertools.product(range(n), repeat=2))


def thin_from_preorder(n, pairs):
    """Thin category on 0..n-1 with one morphism x -> y per pair (x, y).

    Morphisms are numbered in sorted pair order, and the composition table
    is enumerated the usual way: for each f, the g leaving its target in id
    order.  n must be at least 0, and pairs must lie in 0..n-1 and be
    reflexive and transitive; ValueError naming n or the first offending
    pair or object otherwise.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be at least 0, not %r" % (n,))
    pairs = list(pairs)
    try:
        labels = sorted(set(pairs))
        for (x, y) in labels:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError("pair %r is outside 0..%d" % ((x, y), n - 1))
        mor_id = {t: i for i, t in enumerate(labels)}
        for x in range(n):
            if (x, x) not in mor_id:
                raise ValueError("preorder is not reflexive at %d" % x)
        leaving = [[] for _ in range(n)]
        for m, (x, y) in enumerate(labels):
            leaving[x].append((m, y))
        comp = {}
        for f, (x, y) in enumerate(labels):
            for g, z in leaving[y]:
                if (x, z) not in mor_id:
                    raise ValueError("preorder is not transitive: (%d, %d) is missing" % (x, z))
                comp[(g, f)] = mor_id[(x, z)]
    except TypeError:
        # an entry that is not an int fails a comparison or indexes a list
        bad = next(t for t in pairs
                   if not (isinstance(t, tuple) and all(isinstance(v, int) for v in t)))
        raise ValueError("pair %r is outside 0..%d" % (bad, n - 1)) from None
    return FinCat(n, [t[0] for t in labels], [t[1] for t in labels],
                  [mor_id[(x, x)] for x in range(n)], comp)


def disjoint_union(cats):
    """Coproduct; returns (cat, obj_offsets, mor_offsets)."""
    obj_off, mor_off = [], []
    src, tgt, identity = [], [], []
    comp = {}
    o = m = 0
    for c in cats:
        obj_off.append(o)
        mor_off.append(m)
        src.extend(x + o for x in c.src)
        tgt.extend(x + o for x in c.tgt)
        identity.extend(e + m for e in c.identity)
        for (g, f), h in c.comp.items():
            comp[(g + m, f + m)] = h + m
        o += c.n_obj
        m += c.n_mor
    return FinCat(o, src, tgt, identity, comp), obj_off, mor_off


def validate_category(cat):
    """Check the category laws; returns a list of violations (empty = fine).

    Malformed tables (indices out of range, mismatched lengths) raise
    ValueError instead: those are broken inputs, not lawfully-shaped
    categories that happen to break a law.
    """
    n, m = cat.n_obj, cat.n_mor
    comp = cat.comp
    if len(cat.tgt) != m or len(cat.identity) != n:
        raise ValueError("table lengths disagree")
    if any(not 0 <= x < n for x in cat.src) or any(not 0 <= x < n for x in cat.tgt):
        raise ValueError("source/target out of range")
    if any(not 0 <= e < m for e in cat.identity):
        raise ValueError("identity table out of range")
    for (g, f), h in comp.items():
        if not (0 <= g < m and 0 <= f < m and 0 <= h < m):
            raise ValueError("composition table mentions unknown morphisms")

    problems = []
    for x in range(n):
        e = cat.identity[x]
        if cat.src[e] != x or cat.tgt[e] != x:
            problems.append("identity of object %d is not an endomorphism of it" % x)
    for g in range(m):
        for f in range(m):
            defined = (g, f) in comp
            composable = cat.src[g] == cat.tgt[f]
            if composable and not defined:
                problems.append("composite of %d after %d is missing" % (g, f))
            elif defined and not composable:
                problems.append("composite defined for non-composable pair (%d, %d)" % (g, f))
            elif defined:
                h = comp[(g, f)]
                if cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    problems.append("composite %d of (%d, %d) has wrong endpoints" % (h, g, f))
    for f in range(m):
        e0, e1 = cat.identity[cat.src[f]], cat.identity[cat.tgt[f]]
        if comp.get((f, e0)) != f:
            problems.append("right identity law fails at morphism %d" % f)
        if comp.get((e1, f)) != f:
            problems.append("left identity law fails at morphism %d" % f)
    for h in range(m):
        for g in range(m):
            if cat.src[h] != cat.tgt[g]:
                continue
            hg = comp.get((h, g))
            for f in range(m):
                if cat.src[g] != cat.tgt[f]:
                    continue
                gf = comp.get((g, f))
                if gf is None or hg is None:
                    continue
                if comp.get((h, gf)) != comp.get((hg, f)):
                    problems.append("associativity fails on (%d, %d, %d)" % (h, g, f))
    return problems


def generators(cat):
    """A generating set of morphisms, chosen greedily in id order.

    A morphism joins unless it is already a composite of the ones chosen
    before it (identities are free), so every morphism of cat is an identity
    or a composite of the returned ones.  The generated subcategory is grown
    by composing generators on the left: each member is found once and
    multiplied once by every generator that leaves its target.  The set is
    computed once per category and kept on it.
    """
    if cat._gens is not None:
        return list(cat._gens)
    src, tgt, compose = cat.src, cat.tgt, cat.compose
    inside = [False] * cat.n_mor
    for e in cat.identity:
        inside[e] = True
    gens, gens_from = [], [[] for _ in range(cat.n_obj)]
    ending_at = [[] for _ in range(cat.n_obj)]   # non-identity members by target
    for m in range(cat.n_mor):
        if inside[m]:
            continue
        gens.append(m)
        gens_from[src[m]].append(m)
        inside[m] = True
        ending_at[tgt[m]].append(m)
        todo = [m]
        # members found before m get m on the left here; later ones in the loop
        for x in ending_at[src[m]][:]:
            y = compose(m, x)
            if not inside[y]:
                inside[y] = True
                ending_at[tgt[y]].append(y)
                todo.append(y)
        while todo:
            x = todo.pop()
            for s in gens_from[tgt[x]]:
                y = compose(s, x)
                if not inside[y]:
                    inside[y] = True
                    ending_at[tgt[y]].append(y)
                    todo.append(y)
    cat._gens = tuple(gens)
    return gens


def iso_classes(cat):
    """Isomorphism classes of objects.

    Returns (classes, class_of): sorted lists ordered by least member, and the
    quotient map object id -> class index.

    The classes are the components of the graph of isomorphisms, grown by
    union-find in morphism order.  A morphism whose ends are already in one
    class cannot change the partition, so ``is_iso`` is asked only of a
    morphism between two classes; the result depends on the partition alone,
    so it is the one every morphism's test gives.  The classes are computed
    once per category and kept on it; each call returns fresh lists.
    """
    if cat._isos is None:
        parent = list(range(cat.n_obj))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m, (x, y) in enumerate(zip(cat.src, cat.tgt)):
            a, b = find(x), find(y)
            if a != b and cat.is_iso(m):
                parent[max(a, b)] = min(a, b)
        groups = {}
        for x in range(cat.n_obj):
            groups.setdefault(find(x), []).append(x)
        classes = sorted(groups.values())
        class_of = [0] * cat.n_obj
        for i, cls in enumerate(classes):
            for x in cls:
                class_of[x] = i
        cat._isos = tuple(map(tuple, classes)), tuple(class_of)
    classes, class_of = cat._isos
    return list(map(list, classes)), class_of


def is_homotopically_discrete(cat):
    """(flag, witness): at most one morphism per ordered pair, all invertible.

    The witness is an offending morphism when the flag is False.
    """
    seen = set()
    for m in range(cat.n_mor):
        key = (cat.src[m], cat.tgt[m])
        if key in seen:
            return False, m
        seen.add(key)
    for m in range(cat.n_mor):
        if not cat.is_iso(m):
            return False, m
    return True, None


def discrete_iso_classes(cat):
    """``iso_classes(cat)``; ValueError naming a witness unless cat is homotopically discrete."""
    flag, witness = is_homotopically_discrete(cat)
    if not flag:
        raise ValueError("not homotopically discrete, witness morphism %d" % witness)
    return iso_classes(cat)


@dataclass
class Discretization:
    """Discrete category on the iso classes, quotient and section; the classes are kept on the source."""
    discrete: FinCat
    quotient: "FunctorMap"
    section: "FunctorMap"


def discretize(cat):
    """Discrete category on the iso classes, with quotient and section.

    The section picks the least object of each class, and quotient . section
    is the identity.  Rejects categories that are not homotopically discrete.
    A reader of the classes alone calls ``discrete_iso_classes`` instead.
    """
    classes, class_of = discrete_iso_classes(cat)
    d = discrete(len(classes))
    quotient = FunctorMap(cat, d, class_of,
                          [class_of[cat.src[m]] for m in range(cat.n_mor)])
    section = FunctorMap(d, cat, [cls[0] for cls in classes],
                         [cat.identity[cls[0]] for cls in classes])
    back = compose_functors(quotient, section)
    for c in range(d.n_obj):
        # d's morphism c is the identity of its object c
        if back.obj_map[c] != c or back.mor_map[c] != c:
            raise ValueError("section law fails at class %d" % c)
    return Discretization(d, quotient, section)


@dataclass
class FunctorMap:
    source: FinCat
    target: FinCat
    obj_map: tuple
    mor_map: tuple

    def __post_init__(self):
        self.obj_map = tuple(self.obj_map)
        self.mor_map = tuple(self.mor_map)

    def obj(self, x):
        return self.obj_map[x]

    def mor(self, m):
        return self.mor_map[m]


def identity_functor(cat):
    return FunctorMap(cat, cat, range(cat.n_obj), range(cat.n_mor))


def compose_functors(g, f):
    """g after f."""
    if g.source != f.target:
        raise ValueError("functors are not composable")
    return FunctorMap(f.source, g.target,
                      [g.obj_map[x] for x in f.obj_map],
                      [g.mor_map[m] for m in f.mor_map])


def _check_lengths(fun, cat, owner, against="the source"):
    """ValueError naming owner's map and both lengths unless fun covers cat exactly."""
    for kind, image, count, things in (("object", fun.obj_map, cat.n_obj, "objects"),
                                       ("morphism", fun.mor_map, cat.n_mor, "morphisms")):
        if len(image) != count:
            raise ValueError("functor map lengths disagree with %s: %s%s map has"
                             " length %d but %s has %d %s"
                             % (against, owner, kind, len(image), against, count, things))


def _check_functor_shape(fun, component=None):
    """ValueError unless the maps have the source's lengths and land in the target.

    A length error names the map and both lengths, and the component when
    the functor is one component of a larger map.
    """
    owner = "the " if component is None else "the %s component's " % component
    _check_lengths(fun, fun.source, owner)
    for kind, image, count in (("object", fun.obj_map, fun.target.n_obj),
                               ("morphism", fun.mor_map, fun.target.n_mor)):
        try:
            if image and not 0 <= min(image) <= max(image) < count:
                raise ValueError("%s map out of range" % kind)
        except TypeError:
            raise ValueError("%s%s map holds an entry that is not an id" % (owner, kind)) from None


def validate_functor(fun):
    """Functor laws as a violation list; malformed maps raise ValueError.

    Precondition: source and target are categories (the ``FinCat``
    contract).  Endpoints and identities are checked at every morphism and
    object.  Composition is then tried only at the pairs (g, s) with s one
    of ``generators(source)`` and g leaving its target, each composite
    asked of both categories entry by entry, so neither table is forced.
    That decides the law: every f is an identity or f'.s with s a generator
    and f' shorter, and by induction on that length
    F(g.f'.s) = F(g.f')F(s) = F(g)F(f')F(s) = F(g)F(f'.s), by
    associativity in both categories; for f an identity, the identity laws
    and F's endpoints and identities give F(g.f) = F(g)F(f).  Only when
    one of these checks fails is every composable pair of the source
    walked, so the list, its wording and its order are those of the full
    walk.
    """
    _check_functor_shape(fun)
    a, b = fun.source, fun.target
    problems = []
    for m in range(a.n_mor):
        fm = fun.mor_map[m]
        if b.src[fm] != fun.obj_map[a.src[m]] or b.tgt[fm] != fun.obj_map[a.tgt[m]]:
            problems.append("morphism %d is not sent to a morphism between its image endpoints" % m)
    for x in range(a.n_obj):
        if fun.mor_map[a.identity[x]] != b.identity[fun.obj_map[x]]:
            problems.append("identity of object %d is not preserved" % x)
    if not problems:
        mm, out_of = fun.mor_map, [[] for _ in range(a.n_obj)]
        for g, x in enumerate(a.src):
            out_of[x].append(g)
        if all(b._entry(mm[g], mm[s]) == mm[a.compose(g, s)]
               for s in generators(a) for g in out_of[a.tgt[s]]):
            return problems
    bcomp = b.comp
    for (g, f), h in a.comp.items():
        want = bcomp.get((fun.mor_map[g], fun.mor_map[f]))
        if want != fun.mor_map[h]:
            problems.append("composition of (%d, %d) is not preserved" % (g, f))
    return problems


@dataclass
class NatTransf:
    source: FunctorMap
    target: FunctorMap
    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)


def _check_components(components, n_obj, n_mor):
    """ValueError unless components are one morphism id below n_mor for each of n_obj objects."""
    if len(components) != n_obj:
        raise ValueError("one component per source object is required")
    try:
        if any(not 0 <= c < n_mor for c in components):
            raise ValueError("component out of range")
    except TypeError:
        raise ValueError("the components hold an entry that is not an id") from None


def validate_nat(nat):
    """Naturality as a violation list; malformed functors or components raise ValueError."""
    f, g = nat.source, nat.target
    if f.source != g.source or f.target != g.target:
        raise ValueError("the two functors are not parallel")
    _check_functor_shape(f)
    _check_functor_shape(g)
    a, b = f.source, f.target
    _check_components(nat.components, a.n_obj, b.n_mor)
    problems = []
    for x in range(a.n_obj):
        c = nat.components[x]
        if b.src[c] != f.obj_map[x] or b.tgt[c] != g.obj_map[x]:
            problems.append("component at object %d has wrong endpoints" % x)
            return problems
    bcomp = b.comp
    for m in range(a.n_mor):
        x, y = a.src[m], a.tgt[m]
        left = bcomp.get((g.mor_map[m], nat.components[x]))
        right = bcomp.get((nat.components[y], f.mor_map[m]))
        if left != right:
            problems.append("naturality square at morphism %d does not commute" % m)
    return problems


def equivalence_flags(fun):
    """Fully-faithful / essentially-surjective / injective-on-objects flags.

    Malformed maps raise ValueError, as in ``validate_functor``.

    Full faithfulness is decided in one pass over the source's morphisms
    and one over the target's.  Every morphism must go to one between the
    images of its ends, and no two morphisms of one hom set to the same one.
    Then each hom set A(x, y) injects into B(Fx, Fy), and F is full exactly
    when |A(x, y)| = |B(Fx, Fy)| for every pair.  No term can exceed its
    partner, so this holds for every pair exactly when the sums over all
    pairs agree: n_mor of A on the left, and on the right each morphism
    u -> v of B once for every pair (x, y) over (u, v), over[u] * over[v]
    times.
    """
    _check_functor_shape(fun)
    a, b = fun.source, fun.target
    obj, mor = fun.obj_map, fun.mor_map
    over = [0] * b.n_obj           # the source objects over each target object
    for y in obj:
        over[y] += 1
    ff = (all(b.src[fm] == obj[x] and b.tgt[fm] == obj[y]
              for fm, x, y in zip(mor, a.src, a.tgt))
          and len(set(zip(a.src, a.tgt, mor))) == a.n_mor
          and sum(over[u] * over[v] for u, v in zip(b.src, b.tgt)) == a.n_mor)
    eso = all(any(over[y] for y in cls) for cls in iso_classes(b)[0])
    return {
        "fully_faithful": ff,
        "essentially_surjective": eso,
        "injective_on_objects": max(over, default=0) <= 1,
        "is_equivalence": ff and eso,
    }


def is_equivalence(fun):
    return equivalence_flags(fun)["is_equivalence"]


@dataclass
class FiberChain:
    """An iterated fiber product with its tuple labels and projections.

    Built by ``chain_fiber_product``; the one-factor chain of rank one is
    ``single_chain``, which keeps the factor itself as ``cat``.
    """

    cat: FinCat
    obj_label: tuple
    mor_label: tuple
    obj_id: dict
    mor_id: dict
    projections: list


def chain_fiber_product(factors, right_maps, left_maps):
    """Iterated fiber product factors[0] x_B0 factors[1] x_B1 ...

    right_maps[i] : factors[i] -> B_i and left_maps[i] : factors[i+1] -> B_i
    give the matching constraints.  Objects and morphisms are the tuples that
    agree under them; composition is componentwise.  Labels and projection
    functors come along for free.

    The product's composition is a rule, not a table: ``compose`` composes
    the requested tuples through the factors' own ``compose`` and remembers
    the result, and reading ``cat.comp`` builds the complete table (see the
    module docstring).

    ``inverse`` reads the factors' own ``inverse`` instead, which keep their
    answers across every product built over them.  Composition and
    identities are componentwise, so an inverse of a tuple must be the tuple
    of the component inverses: the morphism is invertible exactly when every
    component is and that tuple lies in the product (it always does when the
    constraint maps are functors, which preserve inverses).
    """
    k = len(factors)
    if not (len(right_maps) == len(left_maps) == k - 1):
        raise ValueError("a chain of %d factors needs %d constraint pairs" % (k, k - 1))
    for side, maps, cats in (("right", right_maps, factors), ("left", left_maps, factors[1:])):
        for i, (fun, cat) in enumerate(zip(maps, cats)):
            _check_lengths(fun, cat, "the %s constraint map %d's " % (side, i), "its factor")

    def tuples(sizes, right_of, left_of):
        out = [(v,) for v in range(sizes[0])]
        for i in range(1, k):
            buckets = {}
            for v in range(sizes[i]):
                buckets.setdefault(left_of[i - 1](v), []).append(v)
            out = [t + (v,) for t in out for v in buckets.get(right_of[i - 1](t[-1]), ())]
        return out

    objs = tuple(tuples([c.n_obj for c in factors],
                        [r.obj for r in right_maps], [l.obj for l in left_maps]))
    mors = tuple(tuples([c.n_mor for c in factors],
                        [r.mor for r in right_maps], [l.mor for l in left_maps]))
    obj_id = {t: i for i, t in enumerate(objs)}
    mor_id = {t: i for i, t in enumerate(mors)}
    obj_cols = list(zip(*objs)) or [()] * k       # one column per factor
    mor_cols = list(zip(*mors)) or [()] * k

    def read(tables, cols, ids):
        """Each factor's column through its table, rows looked up in ids."""
        return list(map(ids.__getitem__,
                        zip(*[map(t.__getitem__, c) for t, c in zip(tables, cols)])))

    src = read([c.src for c in factors], mor_cols, obj_id)
    tgt = read([c.tgt for c in factors], mor_cols, obj_id)
    identity = read([c.identity for c in factors], obj_cols, mor_id)
    composers = [c.compose for c in factors]

    def rule(gi, fi):
        return mor_id[tuple([c(g, f) for c, g, f in zip(composers, mors[gi], mors[fi])])]

    def inverse_rule(mi):
        inv = []
        for c, m in zip(factors, mors[mi]):
            n = c.inverse(m)
            if n is None:
                return None
            inv.append(n)
        return mor_id.get(tuple(inv))

    cat = FinCat(len(objs), src, tgt, identity, rule=rule, inverse_rule=inverse_rule)
    projections = [FunctorMap(cat, factors[i], obj_cols[i], mor_cols[i]) for i in range(k)]
    return FiberChain(cat, objs, mors, obj_id, mor_id, projections)


def single_chain(cat):
    """The one-factor chain on cat: cat itself, 1-tuple labels, identity projection."""
    objs = tuple((v,) for v in range(cat.n_obj))
    mors = tuple((m,) for m in range(cat.n_mor))
    return FiberChain(cat, objs, mors, {t: t[0] for t in objs},
                      {t: t[0] for t in mors}, [identity_functor(cat)])


def mediating_functor(chain, cone_maps):
    """The unique functor into a fiber product matching the given cone.

    cone_maps[i] : T -> factors[i] must agree under the chain's constraint
    maps (ValueError otherwise); the projections are jointly injective, so
    uniqueness is forced and the mediating functor is the tuple pairing.
    """
    if len(cone_maps) != len(chain.projections):
        raise ValueError("one cone leg per factor is required")
    t = cone_maps[0].source
    for i, c in enumerate(cone_maps):
        _check_lengths(c, t, "cone leg %d's " % i, "the cone's source")
    maps = []
    for kind, ids, legs in (("object", chain.obj_id, [c.obj_map for c in cone_maps]),
                            ("morphism", chain.mor_id, [c.mor_map for c in cone_maps])):
        image = list(map(ids.get, zip(*legs)))
        if None in image:
            raise ValueError("cone legs disagree on %s %d" % (kind, image.index(None)))
        maps.append(image)
    return FunctorMap(t, chain.cat, *maps)


def chain_map(source, target, components):
    """Mediating functor into target of the legs components[i] . source.projections[i]."""
    legs = [compose_functors(c, pr) for c, pr in zip(components, source.projections)]
    return mediating_functor(target, legs)


def full_subcategory(cat, objects):
    """(subcategory, inclusion) on the given objects, kept in sorted order; it composes through cat."""
    objects = list(objects)
    for x in objects:
        if x not in range(cat.n_obj):
            raise ValueError("object %r is not among the %d objects of the category"
                             % (x, cat.n_obj))
    objects = sorted(set(objects))
    obj_new = {x: i for i, x in enumerate(objects)}
    keep = [m for m in range(cat.n_mor)
            if cat.src[m] in obj_new and cat.tgt[m] in obj_new]
    mor_new = {m: i for i, m in enumerate(keep)}
    sub = FinCat(len(objects),
                 [obj_new[cat.src[m]] for m in keep],
                 [obj_new[cat.tgt[m]] for m in keep],
                 [mor_new[cat.identity[x]] for x in objects],
                 rule=lambda g, f: mor_new[cat.compose(keep[g], keep[f])])
    incl = FunctorMap(sub, cat, objects, keep)
    return sub, incl


@dataclass
class Retraction:
    backward: FunctorMap
    counit: NatTransf


def retraction_pseudo_inverse(fun):
    """Retraction of an injective-on-objects equivalence F, with G . F = Id.

    Counit components FG => Id are identities on the image of F; off the
    image the smallest witnessing object and then the smallest iso are
    chosen, so the result is deterministic.  The witnesses for y are the x
    with F x in y's iso class (isos compose and invert, so each such F x
    has an iso into y), read from the classes ``equivalence_flags`` kept.
    Each chosen hom set's first iso is found in one pass over the target's
    morphisms in id order, which stops once every y has its iso, so no hom
    table is built.

    Precondition: source and target are categories (the ``FinCat``
    contract; the builders check their levels, and the hat and strict
    chains are fiber products of those).  G sends m : y0 -> y1 to the
    preimage of eps[y1]^-1 . m . eps[y0], read from one dict of F's
    morphism map, which is injective once F is fully faithful and
    injective on objects.  Each counit component is inverted once, and an
    identity component is not composed with, which the identity laws make
    exact.
    """
    flags = equivalence_flags(fun)
    if not (flags["is_equivalence"] and flags["injective_on_objects"]):
        raise ValueError("need an injective-on-objects equivalence")
    a, b = fun.source, fun.target
    preim = {fun.obj_map[x]: x for x in range(a.n_obj)}
    class_of = iso_classes(b)[1]
    witness = {}                   # iso class of b -> the least x with F x in it
    for x, fx in enumerate(fun.obj_map):
        witness.setdefault(class_of[fx], x)
    gobj = [preim[y] if y in preim else witness[class_of[y]] for y in range(b.n_obj)]
    eps = list(b.identity)
    # off-image y -> F G y, until y's first iso from F G y is found
    wanted = {y: fun.obj_map[gobj[y]] for y in range(b.n_obj) if y not in preim}
    for m, y in enumerate(b.tgt):
        if not wanted:
            break
        if wanted.get(y) == b.src[m] and b.is_iso(m):
            eps[y] = m
            del wanted[y]
    ident = set(b.identity)
    inverse = {e: b.inverse(e) for e in eps if e not in ident}
    mor_pre = {fm: n for n, fm in enumerate(fun.mor_map)}
    gmor, compose = [], b.compose
    for m, (y0, y1) in enumerate(zip(b.src, b.tgt)):
        conj = m if eps[y0] in ident else compose(m, eps[y0])
        if eps[y1] not in ident:
            conj = compose(inverse[eps[y1]], conj)
        n = mor_pre.get(conj)
        if n is None:
            raise ValueError("transport of morphism %d has 0 preimages, not one" % m)
        gmor.append(n)
    g = FunctorMap(b, a, gobj, gmor)
    counit = NatTransf(compose_functors(fun, g), identity_functor(b), eps)
    return Retraction(g, counit)
